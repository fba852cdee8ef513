package sim_test

import (
	"maps"
	"reflect"
	"testing"

	"ltsp"
	"ltsp/internal/interp"
	"ltsp/internal/sim"
	"ltsp/internal/workload"
)

// TestRunColdRepeats holds RunCold to its promise: whenever it reports
// that the next cold run would repeat a run, the next run returns the
// same Result field by field and leaves the memory as it found it. Every
// workload loop runs each of its reference trip counts cold three times
// on one memory, under the baseline compiler and under HLO with latency
// tolerance. A loop that increments an array in place changes the page
// it reads, so it must never report a repeat.
func TestRunColdRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload loop")
	}
	repeats, runs := 0, 0
	for _, b := range workload.All() {
		for i := range b.Loops {
			spec := &b.Loops[i]
			for _, gc := range goldenConfigs[:2] {
				key := b.Name + "/" + spec.Name + "|" + gc.name
				prog, cfg := compileGolden(t, key, spec, gc)
				runner, mem := sim.NewRunner(cfg), spec.NewMemory()
				for _, s := range spec.Ref {
					n := checkColdRuns(t, key, runner, prog, s.Trip, mem)
					repeats += n
					runs += 3
				}
			}
		}
	}
	t.Logf("%d of %d cold runs reported that the next would repeat them", repeats, runs)
	if repeats == 0 {
		t.Error("no workload loop's cold run reported a repeat")
	}

	const base = 0x10000
	c, err := ltsp.Compile(copyAddLoop(base, base, 1), ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	mem := interp.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.Store(base+4*i, 4, i)
	}
	runner := sim.NewRunner(sim.DefaultConfig())
	for run := 0; run < 3; run++ {
		if _, repeats, err := runner.RunCold(c.Program, 64, mem); err != nil {
			t.Fatal(err)
		} else if repeats {
			t.Errorf("in-place increment, run %d: RunCold reports a repeat, but the run changed the page it read", run)
		}
	}
	if got := mem.Load(base+4*63, 4); got != 63+3 {
		t.Errorf("in-place increment: a[63] = %d after three runs, want 66", got)
	}
}

// checkColdRuns runs p cold three times at trip on mem and checks each
// run that follows a reported repeat against the run it was to repeat.
// It returns how many runs reported a repeat.
func checkColdRuns(t *testing.T, key string, runner *sim.Runner, p *interp.Program, trip int64, mem *interp.Memory) (repeats int) {
	t.Helper()
	var prev *sim.Result
	var prevMem map[int64][4096]byte
	for run := 0; run < 3; run++ {
		r, rep, err := runner.RunCold(p, trip, mem)
		if err != nil {
			t.Fatalf("%s trip %d: %v", key, trip, err)
		}
		if prev != nil {
			got, want := reflect.ValueOf(*r), reflect.ValueOf(*prev)
			for f := 0; f < got.NumField(); f++ {
				if !reflect.DeepEqual(got.Field(f).Interface(), want.Field(f).Interface()) {
					t.Errorf("%s trip %d run %d: %s differs from the run it was to repeat", key, trip, run, got.Type().Field(f).Name)
				}
			}
			if !maps.Equal(mem.Snapshot(), prevMem) {
				t.Errorf("%s trip %d run %d: memory changed in a run that was to repeat", key, trip, run)
			}
		}
		prev, prevMem = nil, nil
		if rep {
			prev, prevMem = r, mem.Snapshot()
			repeats++
		}
	}
	return repeats
}
