package regalloc_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ltsp/internal/core"
	"ltsp/internal/ddg"
	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
	"ltsp/internal/workload"
)

// diffLoops returns every workload loop spec and the size-scaled
// archetypes (MultiStreamXor with 2-16 streams, RegPressureFP with 2-24
// lanes).
func diffLoops() map[string]func() *ir.Loop {
	out := map[string]func() *ir.Loop{}
	for _, b := range workload.All() {
		for i := range b.Loops {
			out[b.Name+"/"+b.Loops[i].Name] = b.Loops[i].Gen
		}
	}
	for n := 2; n <= 16; n++ {
		out[fmt.Sprintf("multistreamxor-%d", n)], _ = workload.MultiStreamXor(n, 1024)
	}
	for _, lanes := range []int{2, 4, 6, 8, 12, 16, 20, 24} {
		out[fmt.Sprintf("regpressurefp-%d", lanes)], _ = workload.RegPressureFP(lanes, 1024)
	}
	return out
}

// sameAllocation reports how Allocate's result differs from the
// reference allocator's, or "" when they agree.
func sameAllocation(got, want *regalloc.Assignment, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var a, b *regalloc.OverflowError
		if gotErr.Error() != wantErr.Error() || errors.As(gotErr, &a) != errors.As(wantErr, &b) {
			return fmt.Sprintf("error %q (%T), reference %q (%T)", gotErr, gotErr, wantErr, wantErr)
		}
		return ""
	}
	switch {
	case !reflect.DeepEqual(regalloc.AllocMap(got), regalloc.AllocMap(want)):
		return fmt.Sprintf("allocations %v, reference %v", regalloc.AllocMap(got), regalloc.AllocMap(want))
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, reference %+v", got.Stats, want.Stats)
	case !reflect.DeepEqual(got.RotInits, want.RotInits):
		return fmt.Sprintf("RotInits %v, reference %v", got.RotInits, want.RotInits)
	case got.StagePredBase != want.StagePredBase:
		return fmt.Sprintf("StagePredBase %d, reference %d", got.StagePredBase, want.StagePredBase)
	}
	return ""
}

// staticFailure reports that err is the reference allocator failing on
// the static file: not a rotating overflow, not a negative delta.
func staticFailure(err error) bool {
	var oe *regalloc.OverflowError
	return err != nil && !errors.As(err, &oe) && !strings.Contains(err.Error(), "negative rotation delta")
}

// TestAllocateMatchesReference holds Allocate to the per-register scan it
// replaced: every workload loop and scaled archetype, after HLO, at every
// II the pipeliner may try, under policy and base latencies. It also
// checks that the plan's static error is set exactly when allocation
// fails on the static file at some II, and that it is that failure.
func TestAllocateMatchesReference(t *testing.T) {
	m := machine.Itanium2()
	modes := []hlo.HintMode{hlo.ModeHLO, hlo.ModeAllL3}
	if testing.Short() {
		modes = modes[:1]
	}
	loops := diffLoops()
	staticFailures := 0
	for name, gen := range loops {
		for _, mode := range modes {
			l := gen()
			if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: mode, Prefetch: true}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g, err := ddg.Build(l)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			resII := modsched.ResMII(m, l.Body)
			baseLat := core.BaseLatFn(m)
			polLat := core.Classify(m, g, resII, g.RecMII(baseLat), true, false).LatFn()
			minII := max(resII, g.RecMII(polLat))
			plan := regalloc.NewPlan(m, g)
			failedStatic := false
			for ii := minII; ii <= 2*minII+16; ii++ {
				for _, lat := range []ddg.LatencyFn{polLat, baseLat} {
					s, ok := modsched.ScheduleAtII(m, g, ii, lat, modsched.Options{})
					if !ok {
						continue
					}
					got, gotErr := plan.Allocate(s)
					want, wantErr := regalloc.AllocateRef(m, g, s)
					if d := sameAllocation(got, want, gotErr, wantErr); d != "" {
						t.Fatalf("%s mode %s II=%d: %s", name, mode, ii, d)
					}
					if staticFailure(wantErr) {
						failedStatic = true
					}
				}
			}
			if failedStatic != (plan.StaticErr != nil) {
				t.Errorf("%s mode %s: plan static error %v, but a static failure at some II is %t",
					name, mode, plan.StaticErr, failedStatic)
			}
			if failedStatic {
				staticFailures++
			}
			g.Release()
		}
	}
	if staticFailures == 0 {
		t.Error("no loop exhausted the static file: the static check went untested")
	}
}
