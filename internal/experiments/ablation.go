package experiments

import (
	"context"
	"fmt"
	"strings"

	"ltsp/internal/compiler"
	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/stats"
	"ltsp/internal/workload"
)

// The paper's conclusions suggest two design-space questions its testbed
// could not vary; the simulator can. Both ablations run the HLO-hints
// configuration against the baseline on the subset of benchmarks that
// exercises the mechanism.

// OzQPoint is one point of the memory-queue-capacity ablation.
type OzQPoint struct {
	Capacity int
	// Gain is the HLO-vs-baseline gain (geomean over the OzQ-bound
	// benchmarks) at this capacity.
	Gain float64
	// StallShare is the OzQ-full share of the variant's loop cycles.
	StallShare float64
}

// ozqBenchmarks are the workloads whose clustered requests press on the
// queue.
var ozqBenchmarks = []string{"462.libquantum", "429.mcf", "444.namd"}

// RunOzQAblation sweeps the OzQ capacity. The paper observes that
// latency-tolerant pipelining raises the OzQ-full stall component and
// concludes "the benefit could be much higher if the queuing capacities
// in the cache hierarchy were increased"; this experiment quantifies that
// claim: the gain must grow (weakly) with capacity.
func RunOzQAblation() ([]OzQPoint, error) {
	var out []OzQPoint
	for _, capQ := range []int{12, 24, 48, 96, 192} {
		base := Baseline(true)
		base.OzQCapacity = capQ
		variant := WithHints(hlo.ModeHLO, true, 32)
		variant.OzQCapacity = capQ
		var ratios []float64
		var stall, total float64
		for _, name := range ozqBenchmarks {
			b := workload.ByName(name)
			r, err := EvalBenchmark(b, base, variant)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, stats.RatioFromGain(r.GainPct))
			for _, lv := range r.VarLoops {
				stall += lv.Acct.L1DFPU
				total += lv.Acct.Total
			}
		}
		p := OzQPoint{Capacity: capQ, Gain: stats.GainFromRatios(ratios)}
		if total > 0 {
			p.StallShare = 100 * stall / total
		}
		out = append(out, p)
	}
	return out, nil
}

// RotRegPoint is one point of the rotating-register-supply ablation.
type RotRegPoint struct {
	RotRegs int
	// Gain is the HLO-vs-baseline geomean gain over the register-hungry
	// benchmarks at this rotating-file size.
	Gain float64
	// Reduced counts loops where the fallback ladder had to drop the
	// boosted latencies to allocate.
	Reduced int
}

// rotRegBenchmarks carry long boosted lifetimes (deep latency buffers).
var rotRegBenchmarks = []string{"481.wrf", "200.sixtrack", "444.namd", "429.mcf"}

// RunRotRegAblation shrinks the rotating register regions. The paper
// credits Itanium's 96+96 rotating registers for making aggressive
// latency increases affordable ("the large supply of architected
// registers is far from being exhausted"); with small rotating files the
// fallback ladder fires and the gains collapse — the quantitative version
// of that credit.
func RunRotRegAblation() ([]RotRegPoint, error) {
	var out []RotRegPoint
	for _, rot := range []int{12, 24, 48, 96} {
		base := Baseline(true)
		base.RotGR, base.RotFR = rot, rot
		variant := WithHints(hlo.ModeHLO, true, 32)
		variant.RotGR, variant.RotFR = rot, rot
		var ratios []float64
		reduced := 0
		for _, name := range rotRegBenchmarks {
			b := workload.ByName(name)
			r, err := EvalBenchmark(b, base, variant)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, stats.RatioFromGain(r.GainPct))
			for _, lv := range r.VarLoops {
				if lv.LatencyReduced {
					reduced++
				}
			}
		}
		out = append(out, RotRegPoint{
			RotRegs: rot,
			Gain:    stats.GainFromRatios(ratios),
			Reduced: reduced,
		})
	}
	return out, nil
}

// FormatAblations renders both ablations.
func FormatAblations(ozq []OzQPoint, rot []RotRegPoint) string {
	var b strings.Builder
	b.WriteString("Ablation A — OzQ capacity (paper: \"the benefit could be much higher\n")
	b.WriteString("if the queuing capacities in the cache hierarchy were increased\")\n\n")
	fmt.Fprintf(&b, "  %-10s %12s %18s\n", "capacity", "HLO gain", "OzQ-full share")
	for _, p := range ozq {
		fmt.Fprintf(&b, "  %-10d %+11.1f%% %17.1f%%\n", p.Capacity, p.Gain, p.StallShare)
	}
	b.WriteString("\nAblation B — rotating register supply (paper: \"the large number of\n")
	b.WriteString("architected registers mitigates problems with register pressure\")\n\n")
	fmt.Fprintf(&b, "  %-14s %12s %22s\n", "rotating regs", "HLO gain", "latency-reduced loops")
	for _, p := range rot {
		fmt.Fprintf(&b, "  %-14d %+11.1f%% %22d\n", p.RotRegs, p.Gain, p.Reduced)
	}
	return b.String()
}

// RotVsUnrollRow compares rotating-register code generation against
// modulo-variable-expansion unrolling for one loop under HLO hints.
type RotVsUnrollRow struct {
	Loop string
	// II and Stages are identical (the schedule is shared).
	II, Stages int
	// Unroll is the MVE unroll factor (code size multiplier).
	Unroll int
	// RotRegs is the rotating kernel's GR+FR consumption; PlainRegs the
	// unrolled kernel's.
	RotRegs, PlainRegs int
	// Failed marks loops whose MVE expansion does not fit the plain
	// register files at all.
	Failed bool
}

// RunRotVsUnroll quantifies the paper's related-work claim: "rotating
// registers easily enable clustering of load instances from successive
// iterations ... Without rotating registers, this effect could only be
// achieved with unrolling" — at U-fold code size and a far larger plain
// register footprint.
func RunRotVsUnroll() ([]RotVsUnrollRow, error) {
	var rows []RotVsUnrollRow
	for _, name := range []string{"429.mcf", "462.libquantum", "481.wrf", "444.namd", "200.sixtrack"} {
		b := workload.ByName(name)
		for i := range b.Loops {
			spec := &b.Loops[i]
			row := RotVsUnrollRow{Loop: name + "/" + spec.Name}

			compile := func(noRotation bool) (*core.Compiled, error) {
				pipeline := true
				r, err := compiler.Compile(context.Background(), spec.Gen(), compiler.Options{
					HLO:      hlo.Options{Mode: hlo.ModeHLO, Prefetch: true, TripEstimate: spec.Ref.Avg()},
					Pipeline: &pipeline,
					Core:     core.Options{LatencyTolerant: true, BoostDelinquent: true, NoRotation: noRotation},
				})
				if err != nil {
					return nil, err
				}
				return r.Kernel, nil
			}
			rot, err := compile(false)
			if err != nil {
				return nil, err
			}
			row.II, row.Stages = rot.FinalII, rot.Stages
			row.RotRegs = rot.Assignment.Stats.TotalGR() + rot.Assignment.Stats.TotalFR()
			unr, err := compile(true)
			if err != nil {
				row.Failed = true
			} else {
				row.Unroll = unr.UnrollFactor
				row.PlainRegs = unr.Assignment.Stats.TotalGR() + unr.Assignment.Stats.TotalFR()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatRotVsUnroll renders the comparison table.
func FormatRotVsUnroll(rows []RotVsUnrollRow) string {
	var b strings.Builder
	b.WriteString("Ablation C — rotation vs unrolling (paper related work: without\n")
	b.WriteString("rotating registers, clustering requires unrolling)\n\n")
	fmt.Fprintf(&b, "  %-28s %4s %7s %8s %9s %10s\n",
		"loop", "II", "stages", "unroll", "rot regs", "plain regs")
	for _, r := range rows {
		if r.Failed {
			fmt.Fprintf(&b, "  %-28s %4d %7d %8s %9d %10s\n",
				r.Loop, r.II, r.Stages, "-", r.RotRegs, "OVERFLOW")
			continue
		}
		fmt.Fprintf(&b, "  %-28s %4d %7d %7dx %9d %10d\n",
			r.Loop, r.II, r.Stages, r.Unroll, r.RotRegs, r.PlainRegs)
	}
	return b.String()
}
