// Package experiments reproduces the paper's evaluation: one driver per
// figure/table (Fig. 5, 7, 8, 9, 10, the Sec. 4.4 mcf case study, the
// Sec. 4.5 register statistics and the Sec. 3.3 compile-time cost),
// built on a shared compile-and-simulate pipeline over the synthetic SPEC
// benchmark models of package workload.
package experiments

import (
	"fmt"

	"ltsp"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/profile"
	"ltsp/internal/regalloc"
	"ltsp/internal/sim"
	"ltsp/internal/stats"
	"ltsp/internal/workload"
)

// Config is one compiler configuration of the paper's experiments.
type Config struct {
	// Name labels the configuration in tables.
	Name string
	// Mode is the hint policy (baseline, all-L3, all-FP-L2, HLO).
	Mode hlo.HintMode
	// Prefetch enables the software prefetcher (on in all of the paper's
	// configurations except one headroom variant).
	Prefetch bool
	// PGO selects dynamic (training-input) trip-count profiles; without it
	// the static heuristic estimates are used.
	PGO bool
	// LatencyTolerant enables the optimization; false is the paper's
	// baseline compiler, which applies no non-critical latency increases.
	LatencyTolerant bool
	// TripThreshold is the paper's n: longer latencies are applied only in
	// loops whose estimated average trip count is at least n. Zero means
	// no threshold.
	TripThreshold float64
	// PipelineGate is the minimum estimated trip count for software
	// pipelining to be considered profitable at all.
	PipelineGate float64
	// RSEPerReg scales the synthesized register-stack-engine cost per loop
	// execution: RSE cycles = RSEPerReg * allocated general registers.
	RSEPerReg float64
	// OzQCapacity overrides the machine's out-of-order memory queue depth
	// (0 = the architectural 48). Used by the ablation experiments.
	OzQCapacity int
	// RotGR / RotFR override the rotating register region sizes (0 = the
	// architectural 96). Used by the ablation experiments.
	RotGR, RotFR int
	// Versioned enables trip-count versioning (the paper's Sec. 6
	// outlook): both a latency-tolerant and a conservative kernel are
	// compiled, and each execution dispatches on its *actual* trip count
	// against TripThreshold — removing the compile-time estimate from the
	// cost equation entirely.
	Versioned bool
	// HintSampling enables dynamic cache-miss sampling (the other Sec. 6
	// outlook item): a baseline-compiled sampling run over the *training*
	// distribution records each load site's service levels, and hints are
	// derived from the observed latencies instead of the static
	// prefetch-efficiency heuristics.
	HintSampling bool
}

// model materializes the (possibly overridden) machine model.
func (c Config) model() *machine.Model {
	m := machine.Itanium2()
	if c.OzQCapacity > 0 {
		m.OzQCapacity = c.OzQCapacity
	}
	if c.RotGR > 0 {
		m.RotGR = c.RotGR
	}
	if c.RotFR > 0 {
		m.RotFR = c.RotFR
	}
	return m
}

// Baseline returns the paper's baseline compiler configuration.
func Baseline(pgo bool) Config {
	return Config{
		Name:         "baseline",
		Mode:         hlo.ModeNone,
		Prefetch:     true,
		PGO:          pgo,
		PipelineGate: 2,
		RSEPerReg:    0.5,
	}
}

// WithHints returns a latency-tolerant configuration with the given hint
// mode and trip-count threshold.
func WithHints(mode hlo.HintMode, pgo bool, threshold float64) Config {
	c := Baseline(pgo)
	c.Name = mode.String()
	if threshold > 0 {
		c.Name = fmt.Sprintf("%s,n=%g", mode.String(), threshold)
	}
	c.Mode = mode
	c.LatencyTolerant = true
	c.TripThreshold = threshold
	return c
}

// LoopEval is the outcome of compiling and simulating one loop under one
// configuration, aggregated over its reference trip-count distribution.
type LoopEval struct {
	Name string
	// Cycles is the distribution-weighted total cycle count.
	Cycles float64
	// Acct is the distribution-weighted cycle accounting.
	Acct AcctF
	// Pipelined reports whether the loop was software-pipelined.
	Pipelined bool
	// II and Stages describe the kernel (pipelined only).
	II, Stages int
	// Reg is the register allocation footprint (pipelined only).
	Reg regalloc.Stats
	// Attempts counts modulo-scheduler placements (compile-time proxy).
	Attempts int
	// Boosted counts loads scheduled above base latency.
	Boosted int
	// LatencyReduced records that the pipeliner's fallback ladder dropped
	// the boosted latencies to satisfy register allocation.
	LatencyReduced bool
	// Estimate is the trip-count estimate the compiler used.
	Estimate profile.Estimate
}

// AcctF is sim.Accounting in float64, for weighted aggregation.
type AcctF struct {
	Total, Unstalled, Exe, L1DFPU, RSE, Flush, FE float64
}

// add accumulates a scaled accounting.
func (a *AcctF) add(b sim.Accounting, scale float64) {
	a.Total += float64(b.Total) * scale
	a.Unstalled += float64(b.Unstalled) * scale
	a.Exe += float64(b.ExeBubble) * scale
	a.L1DFPU += float64(b.L1DFPUBubble) * scale
	a.RSE += float64(b.RSEBubble) * scale
	a.Flush += float64(b.FlushBubble) * scale
	a.FE += float64(b.FEBubble) * scale
}

// addF accumulates another AcctF scaled.
func (a *AcctF) addF(b AcctF, scale float64) {
	a.Total += b.Total * scale
	a.Unstalled += b.Unstalled * scale
	a.Exe += b.Exe * scale
	a.L1DFPU += b.L1DFPU * scale
	a.RSE += b.RSE * scale
	a.Flush += b.Flush * scale
	a.FE += b.FE * scale
}

// warmRunsPerSample bounds how many executions of one (trip, count) sample
// are actually simulated; the remainder are extrapolated from the warm
// runs.
const warmRunsPerSample = 3

// compileOptions maps cfg onto the library's compile options under the
// trip-count estimate est: a known estimate clamps prefetch distances,
// and a loop estimated below the pipelining gate compiles sequentially.
// The caller picks LatencyTolerant.
func (c Config) compileOptions(est profile.Estimate) ltsp.Options {
	opts := ltsp.Options{Model: c.model(), Mode: c.Mode, Prefetch: c.Prefetch, BoostDelinquent: c.LatencyTolerant}
	if est.Known {
		opts.TripEstimate = est.Avg
	}
	if est.Avg < c.PipelineGate {
		off := false
		opts.Pipeline = &off
	}
	return opts
}

// loopCompile is EvalLoop's compile half for one loop under one
// configuration: the options under the loop's trip-count estimate, the
// sampled hints that replace HLO's under HintSampling, and the primary
// compilation's facts (ev, without cycles) and program.
type loopCompile struct {
	spec  *workload.LoopSpec
	opts  ltsp.Options
	hints map[int]sampledHint
	ev    *LoopEval
	prog  *interp.Program
}

// compileLoop runs EvalLoop's compile half alone: the trip-count
// estimate, the sampled hints, the trip-threshold gate on latency
// tolerance and the primary compilation. It simulates only when
// cfg.HintSampling needs a sampling run.
func compileLoop(spec *workload.LoopSpec, cfg Config) (loopCompile, error) {
	var est profile.Estimate
	if cfg.PGO {
		est = profile.PGO(spec.Train)
	} else {
		est = profile.Static(spec.Facts)
	}
	lc := loopCompile{spec: spec, opts: cfg.compileOptions(est)}
	if cfg.HintSampling {
		h, err := sampleLoopHints(spec, cfg, est)
		if err != nil {
			return loopCompile{}, err
		}
		lc.hints = h
		// Sampled hints replace the heuristics. HLO in ModeNone sets no
		// hints and only appends code, so the hints can be placed on the
		// source loop by body ID before compiling.
		lc.opts.Mode = hlo.ModeNone
	}

	tolerant := cfg.LatencyTolerant && (cfg.Versioned || est.Avg >= cfg.TripThreshold)
	c, err := lc.compile(tolerant)
	if err != nil {
		return loopCompile{}, err
	}
	// The primary compilation fills the evaluation metadata.
	lc.ev = &LoopEval{Name: spec.Name, Estimate: est, Pipelined: c.Pipelined, II: c.II, Stages: c.Stages,
		Reg: c.Reg, Attempts: c.Attempts, LatencyReduced: c.LatencyReduced}
	for _, lr := range c.Loads {
		if lr.SchedLat > lr.BaseLat {
			lc.ev.Boosted++
		}
	}
	lc.prog = c.Program
	return lc, nil
}

// compile builds and compiles a fresh copy of the loop; tolerant selects
// the latency policy.
func (lc *loopCompile) compile(tolerant bool) (*ltsp.Compiled, error) {
	l := lc.spec.Gen()
	for id, h := range lc.hints {
		l.Body[id].Mem.Hint = h.hint
		l.Body[id].Mem.Delinquent = h.delinquent
	}
	o := lc.opts
	o.LatencyTolerant = tolerant
	c, err := ltsp.Compile(l, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lc.spec.Name, err)
	}
	return c, nil
}

// EvalLoop compiles the loop under cfg and simulates it over its reference
// trip-count distribution.
func EvalLoop(spec *workload.LoopSpec, cfg Config) (*LoopEval, error) {
	lc, err := compileLoop(spec, cfg)
	if err != nil {
		return nil, err
	}
	ev := lc.ev
	simCfg := sim.DefaultConfig()
	simCfg.Model = lc.opts.Model
	simCfg.RSECyclesPerExec = int64(cfg.RSEPerReg * float64(ev.Reg.TotalGR()))
	prog := lc.prog

	// Trip-count versioning: a second, conservative kernel for short
	// executions, dispatched on the actual trip count.
	var progShort *interp.Program
	versionGate := cfg.TripThreshold
	if versionGate <= 0 {
		versionGate = 32
	}
	if cfg.Versioned && cfg.LatencyTolerant {
		c, err := lc.compile(false)
		if err != nil {
			return nil, err
		}
		progShort = c.Program
	}
	pick := func(trip int64) *interp.Program {
		if progShort != nil && float64(trip) < versionGate {
			return progShort
		}
		return prog
	}

	runner := sim.NewRunner(simCfg)
	mem := spec.NewMemory()
	if !spec.Cold && len(spec.Ref) > 0 {
		// Warm-up execution (not measured): steady-state measurement of a
		// cache-hot loop must not be polluted by the one-time cold start.
		if _, err := runner.Run(pick(spec.Ref[0].Trip), spec.Ref[0].Trip, mem); err != nil {
			return nil, fmt.Errorf("%s: warmup: %w", spec.Name, err)
		}
	}
	for _, s := range spec.Ref {
		if s.Count <= 0 || s.Trip < 1 {
			continue
		}
		n := int64(warmRunsPerSample)
		if s.Count < n {
			n = s.Count
		}
		var acct sim.Accounting
		err := runSample(runner, pick(s.Trip), s.Trip, n, mem, spec.Cold, func(r *sim.Result) { acct.Add(r.Acct) })
		if err != nil {
			return nil, fmt.Errorf("%s: sim: %w", spec.Name, err)
		}
		ev.Acct.add(acct, float64(s.Count)/float64(n))
	}
	ev.Cycles = ev.Acct.Total
	return ev, nil
}

// runSample simulates n executions of one trip-count sample of p on
// runner and mem and passes each result to add. A cold execution runs
// through RunCold, and once one reports that the next would repeat it,
// the remaining executions reuse its result instead of simulating.
func runSample(runner *sim.Runner, p *interp.Program, trip, n int64, mem *interp.Memory, cold bool, add func(*sim.Result)) error {
	for i := int64(0); i < n; i++ {
		var r *sim.Result
		var repeats bool
		var err error
		if cold {
			r, repeats, err = runner.RunCold(p, trip, mem)
		} else {
			r, err = runner.Run(p, trip, mem)
		}
		if err != nil {
			return err
		}
		add(r)
		for ; repeats && i+1 < n; i++ {
			add(r) // each remaining run would repeat r
		}
	}
	return nil
}

// sampledHint is a hint derived from observed load-site latencies.
type sampledHint struct {
	hint       ir.Hint
	delinquent bool
}

// sampleLoopHints performs the dynamic cache-miss sampling run: the loop
// is compiled by the baseline compiler and executed over the *training*
// distribution; each load site's average service latency then determines
// its hint token (and the delinquent flag for memory-latency sites).
func sampleLoopHints(spec *workload.LoopSpec, cfg Config, est profile.Estimate) (map[int]sampledHint, error) {
	opts := cfg.compileOptions(est)
	opts.Mode = hlo.ModeNone
	opts.BoostDelinquent = false
	model := opts.Model
	l := spec.Gen()
	origLen := len(l.Body) // HLO-inserted prefetch sequences are not user loads
	c, err := ltsp.Compile(l, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: sampling: %w", spec.Name, err)
	}
	prog := c.Program
	simCfg := sim.DefaultConfig()
	simCfg.Model = model
	runner := sim.NewRunner(simCfg)
	mem := spec.NewMemory()
	totals := map[int]*[5]int64{}
	latency := map[int]int64{}
	if !spec.Cold && len(spec.Train) > 0 {
		// Warm to steady state first: production sampling is dominated by
		// the steady-state executions, not the process cold start.
		for w := 0; w < 8; w++ {
			if _, err := runner.Run(prog, spec.Train[w%len(spec.Train)].Trip, mem); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range spec.Train {
		if s.Count <= 0 || s.Trip < 1 {
			continue
		}
		err := runSample(runner, prog, s.Trip, min(s.Count, 3), mem, spec.Cold, func(r *sim.Result) {
			for id, levels := range r.LoadSiteLevels {
				t := totals[id]
				if t == nil {
					t = new([5]int64)
					totals[id] = t
				}
				for lv := range levels {
					t[lv] += levels[lv]
				}
			}
			for id, lat := range r.LoadSiteLatency {
				latency[id] += lat
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: sampling: %w", spec.Name, err)
		}
	}

	out := map[int]sampledHint{}
	for id, levels := range totals {
		if id >= origLen || !l.Body[id].Op.IsLoad() {
			continue // prefetch-sequence loads added by HLO
		}
		var n float64
		for lv := 1; lv < 5; lv++ {
			n += float64(levels[lv])
		}
		if n == 0 {
			continue
		}
		// Average observed issue-to-data latency, including waits on
		// in-flight (prefetched) lines — what HP Caliper-style sampling
		// would report.
		avg := float64(latency[id]) / n
		var h sampledHint
		switch {
		case avg > 40:
			h = sampledHint{hint: ir.HintL3, delinquent: true}
		case avg > float64(model.Lat.L2Typ):
			h = sampledHint{hint: ir.HintL3}
		case avg > 2:
			h = sampledHint{hint: ir.HintL2}
		default:
			continue // cache-hot: no hint
		}
		out[id] = h
	}
	return out, nil
}

// BenchResult is one benchmark's baseline-vs-variant comparison.
type BenchResult struct {
	Name  string
	Suite string
	// GainPct is the whole-program percentage gain of the variant over the
	// baseline (positive = faster), the quantity of the paper's bar
	// charts.
	GainPct float64
	// BaseLoops and VarLoops are per-loop evaluations.
	BaseLoops, VarLoops []*LoopEval
	// BaseAcct and VarAcct are whole-program cycle accountings on the
	// baseline-normalized scale (baseline total = 1).
	BaseAcct, VarAcct AcctF
}

// Non-loop cycle composition: the time outside pipelined loops is nearly
// identical under every configuration (the exception is register-stack
// traffic, see rseSensitivity). Its split across accounting states
// approximates a whole-program profile (the dominant EXE bubble matches
// the paper's Fig. 10 shape).
var nonLoopShape = AcctF{
	Total: 1, Unstalled: 0.50, Exe: 0.30, L1DFPU: 0.05, RSE: 0.035,
	Flush: 0.055, FE: 0.06,
}

// rseSensitivity couples non-loop register-stack-engine traffic to the
// loops' stacked-register consumption: functions whose pipelined loops
// allocate more stacked registers force the RSE to spill and refill more
// across calls (paper Sec. 4.5: RSE activity grows 14% with a ~14-28%
// register increase).
const rseSensitivity = 1.0

// rseExtraCap bounds the relative growth of non-loop RSE traffic: caller
// frames re-spill at most this much more, however register-hungry the
// loops become.
const rseExtraCap = 0.35

// EvalBenchmarkVariants evaluates one benchmark against the baseline for
// several variant configurations, computing the baseline only once. Loop
// weights are interpreted on the baseline: loop i with weight w contributes
// w of the baseline's (normalized) total; a variant scales each loop's
// contribution by its simulated cycle ratio.
func EvalBenchmarkVariants(b *workload.Benchmark, base Config, variants []Config) ([]*BenchResult, error) {
	nonLoop := 1 - b.LoopFraction()
	baseLoops := make([]*LoopEval, len(b.Loops))
	for i := range b.Loops {
		eb, err := EvalLoop(&b.Loops[i], base)
		if err != nil {
			return nil, err
		}
		baseLoops[i] = eb
	}
	out := make([]*BenchResult, len(variants))
	for vi, variant := range variants {
		res := &BenchResult{Name: b.Name, Suite: b.Suite, BaseLoops: baseLoops}
		res.BaseAcct.addF(nonLoopShape, nonLoop)
		res.VarAcct.addF(nonLoopShape, nonLoop)
		varTotal := nonLoop
		var baseGR, varGR int64
		for i := range b.Loops {
			spec := &b.Loops[i]
			ev, err := EvalLoop(spec, variant)
			if err != nil {
				return nil, err
			}
			res.VarLoops = append(res.VarLoops, ev)
			eb := baseLoops[i]
			baseGR += int64(eb.Reg.TotalGR())
			varGR += int64(ev.Reg.TotalGR())
			if eb.Cycles <= 0 {
				continue
			}
			scale := spec.Weight / eb.Cycles // sim cycles -> normalized share
			res.BaseAcct.addF(eb.Acct, scale)
			res.VarAcct.addF(ev.Acct, scale)
			varTotal += spec.Weight * (ev.Cycles / eb.Cycles)
		}
		// Register-stack traffic outside the loops grows with the loops'
		// stacked-register footprint.
		if baseGR > 0 && varGR > baseGR {
			grow := rseSensitivity * (float64(varGR)/float64(baseGR) - 1)
			if grow > rseExtraCap {
				grow = rseExtraCap
			}
			extra := nonLoop * nonLoopShape.RSE * grow
			res.VarAcct.RSE += extra
			res.VarAcct.Total += extra
			varTotal += extra
		}
		res.GainPct = stats.GainPct(1, varTotal)
		out[vi] = res
	}
	return out, nil
}

// EvalBenchmark evaluates one benchmark under the baseline and a single
// variant configuration.
func EvalBenchmark(b *workload.Benchmark, base, variant Config) (*BenchResult, error) {
	rs, err := EvalBenchmarkVariants(b, base, []Config{variant})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// SuiteResult aggregates a suite under one variant configuration.
type SuiteResult struct {
	Suite      string
	Configs    []Config
	Benchmarks []string
	// Gains[benchIdx][cfgIdx] is the percentage gain of each variant over
	// the baseline.
	Gains [][]float64
	// Geomean[cfgIdx] is the suite geomean gain per variant.
	Geomean []float64
	// Results[benchIdx][cfgIdx] holds the full per-benchmark evaluations.
	Results [][]*BenchResult
}

// EvalSuite evaluates every benchmark of the suite against the baseline
// for each variant configuration. Benchmarks are evaluated on a worker
// pool (width Workers(); SetWorkers(1) restores sequential evaluation)
// and accumulated in suite order, so the result is identical at any
// width.
func EvalSuite(benchmarks []*workload.Benchmark, base Config, variants []Config) (*SuiteResult, error) {
	res := &SuiteResult{Configs: variants}
	if len(benchmarks) > 0 {
		res.Suite = benchmarks[0].Suite
	}
	perBench, err := parMap(len(benchmarks), Workers(), func(i int) ([]*BenchResult, error) {
		rs, err := EvalBenchmarkVariants(benchmarks[i], base, variants)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", benchmarks[i].Name, err)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	ratios := make([][]float64, len(variants))
	for bi, b := range benchmarks {
		res.Benchmarks = append(res.Benchmarks, b.Name)
		rs := perBench[bi]
		row := make([]float64, len(variants))
		for ci := range variants {
			row[ci] = rs[ci].GainPct
			ratios[ci] = append(ratios[ci], stats.RatioFromGain(rs[ci].GainPct))
		}
		res.Gains = append(res.Gains, row)
		res.Results = append(res.Results, rs)
	}
	res.Geomean = make([]float64, len(variants))
	for ci := range variants {
		res.Geomean[ci] = stats.GainFromRatios(ratios[ci])
	}
	return res, nil
}
