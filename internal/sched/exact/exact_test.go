package exact_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ltsp/internal/core"
	"ltsp/internal/ddg"
	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/sched/exact"
	"ltsp/internal/verify"
	"ltsp/internal/workload"
)

// copyAddLoop is the paper's Fig. 1 running example: a resource-bound
// loop with no recurrence, schedulable at II = 1.
func copyAddLoop() *ir.Loop {
	l := ir.NewLoop("copy-add")
	v, src, dst, r, k := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, src, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	l.Append(ir.Add(r, v, k))
	st := ir.St(dst, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(st)
	l.Init(src, 0x100000)
	l.Init(dst, 0x200000)
	l.Init(k, 1)
	l.LiveOut = []ir.Reg{src, dst}
	return l
}

// fpAccumLoop carries an FP accumulator through an FAdd whose latency
// dominates every resource bound: RecMII = FP latency > ResMII.
func fpAccumLoop() *ir.Loop {
	l := ir.NewLoop("fp-accum")
	src := l.NewGR()
	v, acc := l.NewFR(), l.NewFR()
	ld := ir.LdF(v, src, 8)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 8
	l.Append(ld)
	l.Append(ir.FAdd(acc, acc, v))
	l.Init(src, 0x100000)
	l.InitF(acc, 0)
	l.LiveOut = []ir.Reg{acc}
	return l
}

// setup is the read-only input of a fixed-II solve, built the way the
// pipeline builds it but with base latencies (the latency policy is
// irrelevant to these tests).
type setup struct {
	m     *machine.Model
	g     *ddg.Graph
	lat   ddg.LatencyFn
	minII int
}

func newSetup(t *testing.T, l *ir.Loop) *setup {
	t.Helper()
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	m := machine.Itanium2()
	g, err := ddg.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	lat := core.BaseLatFn(m)
	minII := modsched.ResMII(m, l.Body)
	if rec := g.RecMII(lat); rec > minII {
		minII = rec
	}
	return &setup{m: m, g: g, lat: lat, minII: minII}
}

// traceEvents filters a trace down to one event kind.
func traceEvents(tr *obs.Trace, kind string) []obs.Event {
	var out []obs.Event
	for _, e := range tr.Events() {
		if e.Kind() == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestExactNeverWorseOnWorkloads is the acceptance sweep: every loop of
// all 55 workload models compiles under the exact backend, achieves an
// II no worse than the heuristic's, produces a semantically equivalent
// kernel (cross-backend differential oracle), and — when the whole
// search stayed inside the solver's budget — carries an II-optimality
// proof that the heuristic's equal II corroborates.
func TestExactNeverWorseOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("exact sweep over 55 models is not short")
	}
	m := machine.Itanium2()
	benches := workload.All()
	if len(benches) != 55 {
		t.Fatalf("workload.All() = %d models, want 55", len(benches))
	}
	proven, swept := 0, 0
	for _, b := range benches {
		for i := range b.Loops {
			spec := &b.Loops[i]
			compile := func(backend string, tr *obs.Trace) (*core.Compiled, error) {
				l := spec.Gen()
				if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
					t.Fatalf("%s: hlo: %v", spec.Name, err)
				}
				return core.Pipeline(l, core.Options{
					Model:           m,
					LatencyTolerant: true,
					BoostDelinquent: true,
					Backend:         backend,
					Trace:           tr,
				})
			}
			heur, herr := compile(core.BackendHeuristic, nil)
			tr := obs.New()
			ex, xerr := compile(core.BackendExact, tr)
			if herr != nil {
				// The heuristic could not compile this loop at all; the
				// exact backend owes nothing here.
				continue
			}
			if xerr != nil {
				t.Errorf("%s: exact backend failed where heuristic succeeded: %v", spec.Name, xerr)
				continue
			}
			swept++
			if ex.FinalII > heur.FinalII {
				t.Errorf("%s: exact II %d worse than heuristic II %d", spec.Name, ex.FinalII, heur.FinalII)
			}
			if ex.Backend != core.BackendExact {
				t.Errorf("%s: Compiled.Backend = %q, want %q", spec.Name, ex.Backend, core.BackendExact)
			}
			if ex.ProvenII {
				proven++
				// A proof must never outlive a heuristic fallback unless
				// the winner trivially meets the MinII lower bound.
				if len(traceEvents(tr, "exact-fallback")) > 0 && ex.IIBumps > 0 {
					t.Errorf("%s: proof survived a fallback with %d II bumps", spec.Name, ex.IIBumps)
				}
			}
			if err := verify.Backends(heur.Loop(), heur.Program, ex.Program, verify.Config{Seed: 7}); err != nil {
				t.Errorf("%s: backend divergence: %v", spec.Name, err)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no loops swept")
	}
	if proven == 0 {
		t.Error("exact backend proved optimality for zero loops across the whole workload")
	}
	t.Logf("swept %d loops, %d with proven-optimal II", swept, proven)
}

// TestExactIIOne: a resource-light, recurrence-free loop schedules at
// II = 1 and the result is provably optimal (II meets the lower bound).
func TestExactIIOne(t *testing.T) {
	c, err := core.Pipeline(copyAddLoop(), core.Options{Backend: core.BackendExact})
	if err != nil {
		t.Fatal(err)
	}
	if c.FinalII != 1 {
		t.Fatalf("FinalII = %d, want 1", c.FinalII)
	}
	if !c.ProvenII {
		t.Fatal("II = 1 not marked proven")
	}
	if err := verify.Kernel(c.Loop(), c.Program, verify.Config{Seed: 3}); err != nil {
		t.Fatalf("kernel semantics: %v", err)
	}
}

// TestExactRecMIIDominated: an FP accumulator recurrence sets
// RecMII > ResMII; the exact backend lands exactly on the recurrence
// bound and proves it.
func TestExactRecMIIDominated(t *testing.T) {
	l := fpAccumLoop()
	m := machine.Itanium2()
	g, err := ddg.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	lat := core.BaseLatFn(m)
	recII := g.RecMII(lat)
	resII := modsched.ResMII(m, l.Body)
	g.Release()
	if recII <= resII {
		t.Fatalf("test premise broken: RecMII %d <= ResMII %d", recII, resII)
	}
	c, err := core.Pipeline(fpAccumLoop(), core.Options{Backend: core.BackendExact})
	if err != nil {
		t.Fatal(err)
	}
	if c.FinalII != recII {
		t.Fatalf("FinalII = %d, want RecMII %d", c.FinalII, recII)
	}
	if !c.ProvenII {
		t.Fatal("recurrence-bound II not marked proven")
	}
}

// TestExactOverBudgetFallsBack: loops or IIs beyond the solver's size
// budget are handed to the heuristic per-II with an exact-fallback
// trace event — never an error — and the optimality proof is withheld.
func TestExactOverBudgetFallsBack(t *testing.T) {
	cases := []struct {
		name   string
		lim    exact.Limits
		reason string
	}{
		{"body-size", exact.Limits{MaxBody: 1, MaxII: 64, MaxNodes: 400_000}, "body-size"},
		{"ii-budget", exact.Limits{MaxBody: 24, MaxII: 0, MaxNodes: 400_000}, "ii-budget"},
		{"node-budget", exact.Limits{MaxBody: 24, MaxII: 64, MaxNodes: 1}, "node-budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			su := newSetup(t, copyAddLoop())
			defer su.g.Release()
			sch := exact.New(tc.lim)
			tr := obs.New()
			// The search's own loop, with every schedule accepted.
			maxII := 2*su.minII + 16
			ii := su.minII
			for ; ii <= maxII; ii++ {
				if _, ok := sch.ScheduleAtII(context.Background(), su.m, su.g, ii, su.lat, tr); ok {
					break
				}
			}
			if ii > maxII {
				t.Fatal("over-budget search failed outright; want heuristic fallback")
			}
			evs := traceEvents(tr, "exact-fallback")
			if len(evs) == 0 {
				t.Fatal("no exact-fallback event in trace")
			}
			fb := evs[0].(obs.ExactFallbackEvent)
			if fb.Reason != tc.reason {
				t.Fatalf("fallback reason = %q, want %q", fb.Reason, tc.reason)
			}
			if sch.Proves(ii) {
				t.Fatalf("proof of II %d survived a fallback", ii)
			}
		})
	}
}

// TestExactInfeasibleBelowRecMII: the solver refutes IIs below the
// recurrence bound unconditionally (negative-cycle detection, not
// search exhaustion).
func TestExactInfeasibleBelowRecMII(t *testing.T) {
	su := newSetup(t, fpAccumLoop())
	defer su.g.Release()
	if su.minII < 2 {
		t.Fatalf("test premise broken: MinII %d leaves no II to refute", su.minII)
	}
	sol, st, stats := exact.SolveMin(context.Background(), su.m, su.g, su.minII-1, su.lat, exact.DefaultLimits())
	if st != exact.StatusInfeasible || sol != nil {
		t.Fatalf("II %d below RecMII: status %v, want infeasible", su.minII-1, st)
	}
	if stats.Reason != "" {
		t.Fatalf("infeasible verdict carried an unknown-reason %q", stats.Reason)
	}
}

// TestExactLifetimeMinimized: SolveMin's schedule carries the lifetime
// it reports, and with an ample budget the minimum is proven.
func TestExactLifetimeMinimized(t *testing.T) {
	su := newSetup(t, copyAddLoop())
	defer su.g.Release()
	sol, st, stats := exact.SolveMin(context.Background(), su.m, su.g, su.minII, su.lat, exact.DefaultLimits())
	if st != exact.StatusFeasible {
		t.Fatalf("status %v, want feasible", st)
	}
	if got := exact.MaxLifetime(su.g, sol); got != stats.MaxLife {
		t.Fatalf("schedule lifetime %d != reported %d", got, stats.MaxLife)
	}
	if !stats.LifeProven {
		t.Fatalf("lifetime %d not proven minimal within a %d-node budget", stats.MaxLife, exact.DefaultLimits().MaxNodes)
	}
	if err := sol.Validate(su.m, su.g, su.lat); err != nil {
		t.Fatalf("exact schedule fails the modulo-constraint validator: %v", err)
	}
}

// TestExactCancellation: a pre-canceled context turns a solve undecided
// ("deadline"), makes ScheduleAtII give up without falling back, fails
// the whole compilation with the context's error, and leaks no
// goroutines. Run with -race.
func TestExactCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	su := newSetup(t, copyAddLoop())
	defer su.g.Release()

	// Solver level: undecided with the deadline reason, not a bogus verdict.
	_, st, stats := exact.SolveMin(ctx, su.m, su.g, su.minII, su.lat, exact.DefaultLimits())
	if st != exact.StatusUnknown || stats.Reason != "deadline" {
		t.Fatalf("canceled solve: status %v reason %q, want unknown/deadline", st, stats.Reason)
	}

	// Scheduler level: no schedule, no heuristic fallback (the search
	// loop must observe ctx, not mask it).
	tr := obs.New()
	sch := exact.New(exact.DefaultLimits())
	if s, ok := sch.ScheduleAtII(ctx, su.m, su.g, su.minII, su.lat, tr); ok || s != nil {
		t.Fatal("canceled ScheduleAtII produced a schedule")
	}
	if evs := traceEvents(tr, "exact-fallback"); len(evs) != 0 {
		t.Fatalf("canceled ScheduleAtII fell back to the heuristic: %v", evs)
	}

	// Pipeline level: the compilation fails with the context's error.
	before := runtime.NumGoroutine()
	_, err := core.PipelineCtx(ctx, copyAddLoop(), core.Options{Backend: core.BackendExact})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled exact compile: err = %v, want context.Canceled in the chain", err)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across canceled exact compile: %d -> %d", before, after)
	}
}

// TestExactDeadlineMidSearch: a deadline that expires while the solver
// runs must surface as a cancellation error or a completed result —
// never a hang, panic, or leak.
func TestExactDeadlineMidSearch(t *testing.T) {
	spec := &workload.All()[0].Loops[0]
	for _, d := range []time.Duration{time.Microsecond, 50 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		l := spec.Gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: machine.Itanium2(), Mode: hlo.ModeHLO}); err != nil {
			t.Fatal(err)
		}
		c, err := core.PipelineCtx(ctx, l, core.Options{Backend: core.BackendExact, LatencyTolerant: true})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %v: unexpected error class: %v", d, err)
		}
		if err == nil && c.FinalII <= 0 {
			t.Fatalf("deadline %v: completed compile has II %d", d, c.FinalII)
		}
	}
}

// TestOracleMeasuresWithoutMeddling: the oracle backend returns the
// heuristic's artifact bit-identically and appends an oracle-gap event
// with a sane measurement.
func TestOracleMeasuresWithoutMeddling(t *testing.T) {
	spec := &workload.All()[0].Loops[0]
	m := machine.Itanium2()
	compile := func(backend string, tr *obs.Trace) *core.Compiled {
		l := spec.Gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
			t.Fatal(err)
		}
		c, err := core.Pipeline(l, core.Options{
			Model: m, LatencyTolerant: true, Backend: backend, Trace: tr,
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		return c
	}
	heur := compile(core.BackendHeuristic, nil)
	tr := obs.New()
	oc := compile(core.BackendOracle, tr)

	if oc.FinalII != heur.FinalII || oc.Stages != heur.Stages || oc.Attempts != heur.Attempts {
		t.Fatalf("oracle changed the artifact: II %d/%d stages %d/%d attempts %d/%d",
			oc.FinalII, heur.FinalII, oc.Stages, heur.Stages, oc.Attempts, heur.Attempts)
	}
	if !reflect.DeepEqual(oc.Schedule, heur.Schedule) {
		t.Fatal("oracle schedule differs from heuristic schedule")
	}
	if oc.Backend != core.BackendOracle {
		t.Fatalf("Compiled.Backend = %q, want %q", oc.Backend, core.BackendOracle)
	}
	evs := traceEvents(tr, "oracle-gap")
	if len(evs) != 1 {
		t.Fatalf("oracle trace has %d oracle-gap events, want 1", len(evs))
	}
	gap := evs[0].(obs.OracleGapEvent)
	if gap.HeurII != heur.FinalII {
		t.Fatalf("gap.HeurII = %d, want %d", gap.HeurII, heur.FinalII)
	}
	if gap.ExactII > gap.HeurII || gap.ExactII < 1 {
		t.Fatalf("gap.ExactII = %d out of range (HeurII %d)", gap.ExactII, gap.HeurII)
	}
	if gap.Proven && gap.ExactII == oc.FinalII && !oc.ProvenII {
		t.Fatal("proven zero-gap did not upgrade ProvenII")
	}
}

// TestBackendsDifferentialOracle: verify.Backends accepts heuristic and
// exact kernels of the same loop, and rejects kernels of different
// loops (memory divergence).
func TestBackendsDifferentialOracle(t *testing.T) {
	spec := &workload.All()[0].Loops[0]
	m := machine.Itanium2()
	compile := func(backend string) *core.Compiled {
		l := spec.Gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
			t.Fatal(err)
		}
		c, err := core.Pipeline(l, core.Options{Model: m, LatencyTolerant: true, Backend: backend})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		return c
	}
	heur, ex := compile(core.BackendHeuristic), compile(core.BackendExact)
	if err := verify.Backends(heur.Loop(), heur.Program, ex.Program, verify.Config{Seed: 11}); err != nil {
		t.Fatalf("equivalent backends flagged divergent: %v", err)
	}
	if err := verify.Backends(heur.Loop(), heur.Program, nil, verify.Config{}); err == nil {
		t.Fatal("nil program accepted by the cross-check")
	}
}
