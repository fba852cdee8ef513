package core

import (
	"context"
	"fmt"
	"slices"

	"ltsp/internal/ddg"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/regalloc"
)

// BackendHeuristic, BackendExact, and BackendOracle are the names of the
// scheduling backends. The empty string selects the heuristic.
const (
	BackendHeuristic = "heuristic"
	BackendExact     = "exact"
	BackendOracle    = "oracle"
)

// backends is the sorted set of selectable backend names.
var backends = []string{BackendExact, BackendHeuristic, BackendOracle}

// Backends returns the sorted names of every selectable backend.
func Backends() []string { return slices.Clone(backends) }

// Resolve returns the canonical name of a backend: the empty string
// selects the heuristic. Unknown names return an error listing the
// selectable backends.
func Resolve(name string) (string, error) {
	if name == "" {
		return BackendHeuristic, nil
	}
	if !slices.Contains(backends, name) {
		return "", fmt.Errorf("unknown scheduler backend %q (have %v)", name, backends)
	}
	return name, nil
}

// scheduleFn is what a backend contributes to the II search: it tries to
// schedule the loop at one fixed II under the latency function latf,
// emitting its decision events to tr, and returns nil, false when it
// found no schedule at this II. A backend with long per-II solves
// observes ctx and gives up (nil, false) once it is done.
type scheduleFn func(ctx context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool)

// heuristicAtII is the production backend (heuristic and oracle): one
// iterative-modulo-scheduling attempt. An attempt is never interrupted
// mid-flight — the search checks ctx between IIs — so ctx is unused.
func heuristicAtII(_ context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	return modsched.ScheduleAtII(m, g, ii, latf, modsched.Options{Trace: tr})
}

// kernel is one completed attempt: the schedule and what register
// allocation and code generation built from it.
type kernel struct {
	sched  *modsched.Schedule
	prog   *interp.Program
	asn    *regalloc.Assignment
	unroll int
	loads  []LoadReport
	// reduced records that the attempt ran on the reduced-latency rung.
	reduced bool
}

// search is one compile's II search. Its inputs are read-only during the
// search: scheduling, allocation and code generation never mutate the
// loop, graph, machine model, or policy, so an attempt at a given II
// always produces the same kernel.
type search struct {
	l *ir.Loop
	m *machine.Model
	g *ddg.Graph
	// plan is the rotating allocator's schedule-independent plan, shared
	// by every attempt; nil for NoRotation kernels.
	plan            *regalloc.Plan
	policy          *Policy
	polLat, baseLat ddg.LatencyFn
	minII, maxII    int
	// haveBoost arms the reduced-latency rung: it is set when the
	// latency-tolerant policy (or delinquent-load boosting) raised any
	// latency above base, so there is something to roll back.
	haveBoost bool
	schedule  scheduleFn

	// attempts counts placement operations across the whole search (the
	// paper's compile-time cost metric); lastErr is the last allocation
	// or codegen failure.
	attempts int
	lastErr  error
}

// run is the paper's search (Sec. 3.3): iterate the II upward from
// minII scheduling with the hint-derived latencies; when register
// allocation fails, first retry the same II with all non-critical
// latencies reduced to base, and only then move to the next II (with
// hints re-enabled). It returns the kernel of the first II the ladder
// satisfies, or nil when none up to maxII does or ctx is done; ctx is
// checked between IIs.
func (s *search) run(ctx context.Context, tr *obs.Trace) *kernel {
	for ii := s.minII; ii <= s.maxII && ctx.Err() == nil; ii++ {
		if ii > s.minII && tr.On() {
			tr.Emit(obs.FallbackEvent{Rung: obs.RungRaiseII, II: ii})
		}
		k, allocFailed := s.try(ctx, ii, false, tr)
		if k == nil && allocFailed && s.haveBoost {
			if tr.On() {
				tr.Emit(obs.FallbackEvent{Rung: obs.RungReduceLatency, II: ii})
			}
			k, _ = s.try(ctx, ii, true, tr)
		}
		if k != nil {
			return k
		}
	}
	return nil
}

// try schedules at one (II, latency) point, then allocates registers and
// generates the kernel. It reports allocation-class failures (register
// overflow, structural codegen issues) as allocFailed so the ladder can
// retry the same II with reduced latencies.
func (s *search) try(ctx context.Context, ii int, reduced bool, tr *obs.Trace) (k *kernel, allocFailed bool) {
	lat := s.polLat
	if reduced {
		lat = s.baseLat
	}
	sc, ok := s.schedule(ctx, s.m, s.g, ii, lat, tr)
	if sc != nil {
		s.attempts += sc.Attempts
	}
	if !ok {
		return nil, false
	}
	k = &kernel{sched: sc, unroll: 1, reduced: reduced}
	if s.plan == nil {
		p, u, st, err := genKernelUnrolled(s.m, s.g, sc)
		if err != nil {
			s.codegenFailed(ii, err, tr)
			return nil, true
		}
		k.prog, k.unroll = p, u
		k.asn = &regalloc.Assignment{Stats: st, StagePredBase: 16}
	} else {
		a, err := s.plan.AllocateTraced(sc, tr, reduced)
		if err != nil {
			s.lastErr = err
			_, overflow := err.(*regalloc.OverflowError)
			return nil, overflow
		}
		p, err := GenKernel(s.l, sc, a)
		if err != nil {
			// Cross-stage in-place reads and similar structural issues:
			// treat like an allocation failure and keep searching.
			s.codegenFailed(ii, err, tr)
			return nil, true
		}
		k.prog, k.asn = p, a
	}
	k.loads = loadReports(s.m, s.g, sc, s.policy, lat)
	return k, false
}

// codegenFailed records a kernel-generation failure at one II.
func (s *search) codegenFailed(ii int, err error, tr *obs.Trace) {
	s.lastErr = err
	if tr.On() {
		tr.Emit(obs.CodegenEvent{II: ii, Err: err.Error()})
	}
}

// commit installs the winning kernel into the compilation result.
func (c *Compiled) commit(l *ir.Loop, minII int, k *kernel) {
	c.Program = k.prog
	c.Schedule = k.sched
	c.Assignment = k.asn
	c.loop = l
	c.FinalII = k.sched.II
	c.Stages = k.sched.Stages
	c.LatencyReduced = k.reduced
	c.IIBumps = k.sched.II - minII
	c.UnrollFactor = k.unroll
	c.Loads = k.loads
}
