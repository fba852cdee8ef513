package main

import (
	"fmt"
	"time"

	"ltsp/internal/core"
	"ltsp/internal/experiments"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/profile"
	"ltsp/internal/sim"
	"ltsp/internal/workload"
)

// reproOps is the length of the repro op list: one draw per 6 units of
// weight, the largest weight of a pair, out of 1164. One client goes
// through the 194 evaluations in 5-8 s, so a 25 s run completes at least
// three passes, and its rates are taken per pass.
const reproOps = 194

// reproPair is one (loop spec, experiment config) evaluation with the
// number of times the full ltsp-bench run performs it.
type reproPair struct {
	key    string
	spec   *workload.LoopSpec
	cfg    experiments.Config
	weight float64
}

// configKey names a config by every field EvalLoop reads (not its label).
func configKey(c experiments.Config) string {
	return fmt.Sprintf("%s,pf=%t,pgo=%t,lt=%t,n=%g,gate=%g,rse=%g,ozq=%d,rot=%d/%d,ver=%t,samp=%t",
		c.Mode, c.Prefetch, c.PGO, c.LatencyTolerant, c.TripThreshold, c.PipelineGate,
		c.RSEPerReg, c.OzQCapacity, c.RotGR, c.RotFR, c.Versioned, c.HintSampling)
}

// reproUniverse lists every pair the figures, outlooks and ablations of
// the full ltsp-bench run evaluate, weighted by how often they do.
func reproUniverse() []reproPair {
	var out []reproPair
	index := map[string]int{}
	add := func(benches []*workload.Benchmark, cfg experiments.Config, w float64) {
		for _, b := range benches {
			for i := range b.Loops {
				key := b.Name + "/" + b.Loops[i].Name + "|" + configKey(cfg)
				if j, ok := index[key]; ok {
					out[j].weight += w
					continue
				}
				index[key] = len(out)
				out = append(out, reproPair{key: key, spec: &b.Loops[i], cfg: cfg, weight: w})
			}
		}
	}
	byName := func(names ...string) []*workload.Benchmark {
		var bs []*workload.Benchmark
		for _, n := range names {
			bs = append(bs, workload.ByName(n))
		}
		return bs
	}
	s06, s00, all := workload.CPU2006(), workload.CPU2000(), workload.All()
	hints := experiments.WithHints
	pgoBase, staticBase := experiments.Baseline(true), experiments.Baseline(false)

	// Fig. 7: all-L3 at five thresholds, plus prefetching off at n=32.
	add(all, pgoBase, 1)
	for _, n := range experiments.Fig7Thresholds {
		add(all, hints(hlo.ModeAllL3, true, n), 1)
	}
	nopfBase, nopfVar := pgoBase, hints(hlo.ModeAllL3, true, 32)
	nopfBase.Prefetch, nopfVar.Prefetch = false, false
	add(all, nopfBase, 1)
	add(all, nopfVar, 1)
	// Fig. 8.
	add(all, pgoBase, 1)
	add(all, hints(hlo.ModeAllFPL2, true, 32), 1)
	add(all, hints(hlo.ModeHLO, true, 32), 1)
	// Fig. 9, Fig. 10, register statistics and compile time: CPU2006
	// without PGO; only Fig. 9 evaluates all-L3.
	add(s06, staticBase, 4)
	add(s06, hints(hlo.ModeAllL3, false, 32), 1)
	add(s06, hints(hlo.ModeHLO, false, 32), 4)
	// Outlook A: trip-count versioning.
	versioned := func(pgo bool) experiments.Config {
		c := hints(hlo.ModeAllL3, pgo, 32)
		c.Versioned = true
		return c
	}
	add(s00, pgoBase, 1)
	add(s00, hints(hlo.ModeAllL3, true, 32), 1)
	add(s00, versioned(true), 1)
	add(s06, staticBase, 1)
	add(s06, hints(hlo.ModeAllL3, false, 32), 1)
	add(s06, versioned(false), 1)
	// Outlook B: miss-sampled hints.
	sampled := hints(hlo.ModeHLO, false, 32)
	sampled.HintSampling = true
	add(s06, staticBase, 1)
	add(s06, hints(hlo.ModeHLO, false, 32), 1)
	add(s06, sampled, 1)
	// Ablations: OzQ capacity and rotating register file size.
	for _, q := range []int{12, 24, 48, 96, 192} {
		b, v := pgoBase, hints(hlo.ModeHLO, true, 32)
		b.OzQCapacity, v.OzQCapacity = q, q
		add(byName("462.libquantum", "429.mcf", "444.namd"), b, 1)
		add(byName("462.libquantum", "429.mcf", "444.namd"), v, 1)
	}
	for _, r := range []int{12, 24, 48, 96} {
		b, v := pgoBase, hints(hlo.ModeHLO, true, 32)
		b.RotGR, b.RotFR, v.RotGR, v.RotFR = r, r, r, r
		add(byName("481.wrf", "200.sixtrack", "444.namd", "429.mcf"), b, 1)
		add(byName("481.wrf", "200.sixtrack", "444.namd", "429.mcf"), v, 1)
	}
	return out
}

// reproBench is the repro workload: experiments.EvalLoop, what each
// ltsp-bench worker does per loop.
type reproBench struct {
	pairs []reproPair
	list  []int
	exp   expected
}

func setupRepro(seed int64) (bench, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	pairs := reproUniverse()
	weights := make([]float64, len(pairs))
	for i, p := range pairs {
		weights[i] = p.weight
	}
	b := &reproBench{pairs: pairs, exp: exp, list: drawList(newRand(seed), weights, reproOps)}
	// Warm-up: the same eight evaluations whatever the seed.
	for _, p := range pairs[:8] {
		if _, err := experiments.EvalLoop(p.spec, p.cfg); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// clients is 1: two evaluations at once on a 2-core machine contend
// with each other and with the collector for memory bandwidth, which
// made the throughput of two-client runs spread past its bound.
func (b *reproBench) clients() int                 { return 1 }
func (b *reproBench) passLen() int                 { return len(b.list) }
func (b *reproBench) counters() map[string]float64 { return nil }
func (b *reproBench) close() error                 { return nil }

func (b *reproBench) digest() string {
	return listDigest(len(b.list), func(i int) string { return b.pairs[b.list[i]].key })
}

func (b *reproBench) op(_ int, i int64, t *tracer) (time.Duration, error) {
	p := &b.pairs[b.list[i%int64(len(b.list))]]
	if t != nil {
		start := time.Now()
		ev, err := evalTraced(p.spec, p.cfg, opTracer{t, i})
		d := time.Since(start)
		if err != nil {
			return d, fmt.Errorf("%s: %w", p.key, err)
		}
		return d, b.exp.check("repro", p.key, reproResult(ev.Pipelined, ev.II, ev.Stages, ev.Cycles))
	}
	start := time.Now()
	ev, err := experiments.EvalLoop(p.spec, p.cfg)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", p.key, err)
	}
	return d, b.exp.check("repro", p.key, reproResult(ev.Pipelined, ev.II, ev.Stages, ev.Cycles))
}

// modelOf materializes a config's machine model like experiments does.
func modelOf(c experiments.Config) *machine.Model {
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

// evalTraced follows experiments.EvalLoop (and its miss-sampling run)
// with a span around each call into workload, hlo, core and sim.
func evalTraced(spec *workload.LoopSpec, cfg experiments.Config, ot opTracer) (*experiments.LoopEval, error) {
	est := profile.Static(spec.Facts)
	if cfg.PGO {
		est = profile.PGO(spec.Train)
	}
	model := modelOf(cfg)
	var hints map[int]ir.Hint
	var delinquent map[int]bool
	if cfg.HintSampling {
		var err error
		if hints, delinquent, err = sampleHintsTraced(spec, cfg, est, ot); err != nil {
			return nil, err
		}
	}
	ev := &experiments.LoopEval{Name: spec.Name, Estimate: est}
	simCfg := sim.DefaultConfig()
	simCfg.Model = model

	compileOne := func(tolerant, primary bool) (*interp.Program, error) {
		s := time.Now()
		l := spec.Gen()
		ot.since("workload.gen_us", s)
		if err := l.Verify(); err != nil {
			return nil, err
		}
		hloOpts := hlo.Options{Model: model, Mode: cfg.Mode, Prefetch: cfg.Prefetch}
		if hints != nil {
			hloOpts.Mode = hlo.ModeNone
		}
		if est.Known {
			hloOpts.TripEstimate = est.Avg
		}
		s = time.Now()
		_, err := hlo.Apply(l, hloOpts)
		ot.since("hlo.apply_us", s)
		if err != nil {
			return nil, err
		}
		for _, in := range l.Body {
			if h, ok := hints[in.ID]; ok && in.Op.IsLoad() {
				in.Mem.Hint, in.Mem.Delinquent = h, delinquent[in.ID]
			}
		}
		if est.Avg >= cfg.PipelineGate {
			s = time.Now()
			c, err := core.Pipeline(l, core.Options{Model: model, LatencyTolerant: tolerant, BoostDelinquent: cfg.LatencyTolerant})
			ot.since("core.pipeline_us", s)
			if err == nil {
				if primary {
					ev.Pipelined = true
					ev.II, ev.Stages = c.FinalII, c.Stages
					simCfg.RSECyclesPerExec = int64(cfg.RSEPerReg * float64(c.Assignment.Stats.TotalGR()))
				}
				return c.Program, nil
			}
		}
		s = time.Now()
		p, err := core.GenSequential(model, l)
		ot.since("core.sequential_us", s)
		return p, err
	}

	tolerant := cfg.LatencyTolerant && (cfg.Versioned || est.Avg >= cfg.TripThreshold)
	prog, err := compileOne(tolerant, true)
	if err != nil {
		return nil, err
	}
	var progShort *interp.Program
	versionGate := cfg.TripThreshold
	if versionGate <= 0 {
		versionGate = 32
	}
	if cfg.Versioned && cfg.LatencyTolerant {
		if progShort, err = compileOne(false, false); err != nil {
			return nil, err
		}
	}
	pick := func(trip int64) *interp.Program {
		if progShort != nil && float64(trip) < versionGate {
			return progShort
		}
		return prog
	}
	runner := newRunnerTraced(simCfg, ot)
	mem := initMemTraced(spec, ot)
	if !spec.Cold && len(spec.Ref) > 0 {
		if _, err := simTraced(runner, pick(spec.Ref[0].Trip), spec.Ref[0].Trip, mem, ot); err != nil {
			return nil, err
		}
	}
	for _, smp := range spec.Ref {
		if smp.Count <= 0 || smp.Trip < 1 {
			continue
		}
		n := min(int64(3), smp.Count)
		var acct sim.Accounting
		for i := int64(0); i < n; i++ {
			if spec.Cold {
				runner.DropCaches()
			}
			r, err := simTraced(runner, pick(smp.Trip), smp.Trip, mem, ot)
			if err != nil {
				return nil, err
			}
			acct.Add(r.Acct)
		}
		ev.Cycles += float64(acct.Total) * (float64(smp.Count) / float64(n))
	}
	return ev, nil
}

func initMemTraced(spec *workload.LoopSpec, ot opTracer) *interp.Memory {
	s := time.Now()
	mem := interp.NewMemory()
	spec.InitMem(mem)
	ot.since("workload.initmem_us", s)
	return mem
}

func simTraced(r *sim.Runner, p *interp.Program, trip int64, mem *interp.Memory, ot opTracer) (*sim.Result, error) {
	s := time.Now()
	res, err := r.Run(p, trip, mem)
	ot.since("sim.run_us", s)
	if err == nil {
		ot.add("sim.runs", 1)
		ot.add("sim.cycles", float64(res.Cycles))
		ot.add("cache.accesses", float64(res.Cache.Accesses))
	}
	return res, err
}

// sampleHintsTraced follows the miss-sampling run of EvalLoop: a
// baseline compile executed over the training distribution, with hints
// derived from the observed per-site load latencies.
func sampleHintsTraced(spec *workload.LoopSpec, cfg experiments.Config, est profile.Estimate, ot opTracer) (map[int]ir.Hint, map[int]bool, error) {
	model := modelOf(cfg)
	s := time.Now()
	l := spec.Gen()
	ot.since("workload.gen_us", s)
	origLen := len(l.Body)
	hloOpts := hlo.Options{Model: model, Mode: hlo.ModeNone, Prefetch: cfg.Prefetch}
	if est.Known {
		hloOpts.TripEstimate = est.Avg
	}
	s = time.Now()
	_, err := hlo.Apply(l, hloOpts)
	ot.since("hlo.apply_us", s)
	if err != nil {
		return nil, nil, err
	}
	var prog *interp.Program
	if est.Avg >= cfg.PipelineGate {
		s = time.Now()
		c, err := core.Pipeline(l, core.Options{Model: model})
		ot.since("core.pipeline_us", s)
		if err == nil {
			prog = c.Program
		}
	}
	if prog == nil {
		s = time.Now()
		prog, err = core.GenSequential(model, l)
		ot.since("core.sequential_us", s)
		if err != nil {
			return nil, nil, err
		}
	}
	simCfg := sim.DefaultConfig()
	simCfg.Model = model
	runner := newRunnerTraced(simCfg, ot)
	mem := initMemTraced(spec, ot)
	if !spec.Cold && len(spec.Train) > 0 {
		for w := 0; w < 8; w++ {
			if _, err := simTraced(runner, prog, spec.Train[w%len(spec.Train)].Trip, mem, ot); err != nil {
				return nil, nil, err
			}
		}
	}
	totals := map[int]*[5]int64{}
	latency := map[int]int64{}
	for _, smp := range spec.Train {
		if smp.Count <= 0 || smp.Trip < 1 {
			continue
		}
		for i := int64(0); i < 3 && i < smp.Count; i++ {
			if spec.Cold {
				runner.DropCaches()
			}
			r, err := simTraced(runner, prog, smp.Trip, mem, ot)
			if err != nil {
				return nil, nil, err
			}
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
		}
	}
	hints, delinquent := map[int]ir.Hint{}, map[int]bool{}
	for id, levels := range totals {
		if id >= origLen || !l.Body[id].Op.IsLoad() {
			continue
		}
		var n float64
		for lv := 1; lv < 5; lv++ {
			n += float64(levels[lv])
		}
		if n == 0 {
			continue
		}
		switch avg := float64(latency[id]) / n; {
		case avg > 40:
			hints[id], delinquent[id] = ir.HintL3, true
		case avg > float64(model.Lat.L2Typ):
			hints[id] = ir.HintL3
		case avg > 2:
			hints[id] = ir.HintL2
		}
	}
	return hints, delinquent, nil
}

// newRunnerTraced builds a simulator with a cold cache hierarchy.
func newRunnerTraced(cfg sim.Config, ot opTracer) *sim.Runner {
	s := time.Now()
	r := sim.NewRunner(cfg)
	ot.since("sim.new_runner_us", s)
	return r
}
