package main

import (
	"errors"
	"fmt"
	"time"

	"ltsp"
	"ltsp/internal/core"
	"ltsp/internal/ddg"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
	"ltsp/internal/verify"
)

// compilePasses is how many times each point of the compile universe
// appears in the op list.
const compilePasses = 4

// verifyEvery is the stride of compiled programs checked by the
// independent verifier, outside the timed call.
const verifyEvery = 256

// compileBench is the compile workload: ltsp.Compile with default
// options (sequential II search, heuristic backend), as ltspd runs it,
// from one goroutine.
type compileBench struct {
	inputs []compileInput
	list   []int
	exp    expected
}

func setupCompile(seed int64) (bench, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	inputs := compileUniverse()
	b := &compileBench{inputs: inputs, exp: exp,
		list: drawList(newRand(seed), uniform(len(inputs)), compilePasses*len(inputs))}
	// Warm-up: one compile of every loop body at its first option point,
	// the same whatever the seed.
	perLoop := len(hintModes) * 2 * len(tripEstimates)
	for i := 0; i < len(inputs); i += perLoop {
		if _, err := ltsp.Compile(inputs[i].loop.Clone(), inputs[i].opts); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *compileBench) clients() int                 { return 1 }
func (b *compileBench) counters() map[string]float64 { return nil }
func (b *compileBench) close() error                 { return nil }

func (b *compileBench) digest() string {
	return listDigest(len(b.list), func(i int) string { return b.inputs[b.list[i]].key })
}

func (b *compileBench) op(_ int, i int64, t *tracer) (time.Duration, error) {
	in := &b.inputs[b.list[i%int64(len(b.list))]]
	if t != nil {
		return b.tracedOp(in, opTracer{t, i}, i%verifyEvery == 0)
	}
	l := in.loop.Clone()
	start := time.Now()
	c, err := ltsp.Compile(l, in.opts)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", in.key, err)
	}
	if err := b.exp.check("compile", in.key, compileResult(c.Pipelined, c.II, c.Stages)); err != nil {
		return d, err
	}
	if i%verifyEvery == 0 {
		if err := c.Verify(); err != nil {
			return d, fmt.Errorf("%s: verifier: %w", in.key, err)
		}
	}
	return d, nil
}

// tracedOp compiles like ltsp.Compile with default options, calling each
// phase's public function in pipeline order with a span around it.
func (b *compileBench) tracedOp(in *compileInput, ot opTracer, check bool) (time.Duration, error) {
	l := in.loop.Clone()
	m := machine.Itanium2()
	start := time.Now()
	s := time.Now()
	_, err := hlo.Apply(l, hlo.Options{Model: m, Mode: in.opts.Mode, Prefetch: in.opts.Prefetch, TripEstimate: in.opts.TripEstimate})
	ot.since("hlo.apply_us", s)
	if err != nil {
		return time.Since(start), fmt.Errorf("%s: %w", in.key, err)
	}
	ot.add("ir.body_instrs", float64(len(l.Body)))
	k, perr := pipelineTraced(l, m, in.opts, ot)
	if perr != nil {
		s = time.Now()
		p, err := core.GenSequential(m, l)
		ot.since("core.codegen_us", s)
		if err != nil {
			return time.Since(start), fmt.Errorf("%s: %w", in.key, err)
		}
		k = &kernel{prog: p}
	}
	d := time.Since(start)
	if err := b.exp.check("compile", in.key, compileResult(k.sched != nil, k.ii, k.stages)); err != nil {
		return d, err
	}
	if check {
		s = time.Now()
		if k.sched != nil {
			err = verify.Schedule(m, l, k.sched, k.asn)
		}
		if err == nil {
			err = verify.Kernel(l, k.prog, verify.Config{Seed: 1})
		}
		ot.since("verify.us", s)
		if err != nil {
			return d, fmt.Errorf("%s: verifier: %w", in.key, err)
		}
	}
	return d, nil
}

// kernel is the outcome of the traced pipeliner.
type kernel struct {
	prog       *interp.Program
	sched      *modsched.Schedule
	asn        *regalloc.Assignment
	ii, stages int
}

var errNoSchedule = errors.New("no feasible schedule")

// pipelineTraced follows core.PipelineCtx under the sequential II search
// of the heuristic backend: ResMII, DDG and base RecMII, load
// classification, policy RecMII, then from MinII upward the fallback
// ladder of ScheduleAtII, register allocation and kernel generation.
func pipelineTraced(l *ir.Loop, m *machine.Model, opts ltsp.Options, ot opTracer) (*kernel, error) {
	if err := l.Verify(); err != nil {
		return nil, err
	}
	s := time.Now()
	g, err := ddg.Build(l)
	ot.since("ddg.build_us", s)
	if err != nil {
		return nil, err
	}
	defer g.Release()
	ot.add("ddg.edges", float64(len(g.Edges)))
	s = time.Now()
	resII := modsched.ResMII(m, l.Body)
	ot.since("modsched.resmii_us", s)
	baseLat := core.BaseLatFn(m)
	s = time.Now()
	baseRecII := g.RecMII(baseLat)
	ot.since("ddg.recmii_us", s)
	s = time.Now()
	policy := core.Classify(m, g, resII, baseRecII, opts.LatencyTolerant, opts.BoostDelinquent)
	polLat := policy.LatFn()
	ot.since("core.classify_us", s)
	s = time.Now()
	minII := max(resII, g.RecMII(polLat))
	ot.since("ddg.recmii_us", s)
	haveBoost := opts.LatencyTolerant || opts.BoostDelinquent

	// try schedules at one (II, latency) point and finishes the kernel;
	// allocFailed asks the ladder to retry the II at base latencies.
	try := func(ii int, lat ddg.LatencyFn) (k *kernel, allocFailed bool) {
		s := time.Now()
		sc, ok := modsched.ScheduleAtII(m, g, ii, lat, modsched.Options{})
		ot.since("modsched.schedule_us", s)
		if !ok {
			ot.add("modsched.fails", 1)
			return nil, false
		}
		s = time.Now()
		a, err := regalloc.Allocate(m, g, sc)
		ot.since("regalloc.allocate_us", s)
		if err != nil {
			var overflow *regalloc.OverflowError
			return nil, errors.As(err, &overflow)
		}
		s = time.Now()
		p, err := core.GenKernel(l, sc, a)
		ot.since("core.codegen_us", s)
		if err != nil {
			return nil, true
		}
		return &kernel{prog: p, sched: sc, asn: a, ii: ii, stages: sc.Stages}, false
	}
	for ii := minII; ii <= 2*minII+16; ii++ {
		k, allocFailed := try(ii, polLat)
		if k == nil && allocFailed && haveBoost {
			if k, _ = try(ii, baseLat); k != nil {
				ot.add("ltsp.latency_reduced", 1)
			}
		}
		if k != nil {
			ot.add("ltsp.ii_bumps", float64(ii-minII))
			return k, nil
		}
	}
	return nil, errNoSchedule
}
