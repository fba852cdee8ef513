package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/sched"
	"ltsp/internal/workload"
)

// TestParallelSearchEquivalence pins the tentpole determinism guarantee:
// for every loop of all 55 workload models, under both latency policies,
// the speculative parallel II search must produce a Schedule identical to
// the sequential search (II, Time, Port, Stages, chosen fallback rung)
// and a byte-identical decision trace. Run with -race to exercise the
// speculation machinery's synchronization.
func TestParallelSearchEquivalence(t *testing.T) {
	m := machine.Itanium2() // shared across modes and goroutines on purpose
	benches := workload.All()
	if len(benches) != 55 {
		t.Fatalf("workload.All() = %d models, want 55", len(benches))
	}

	type outcome struct {
		c   *core.Compiled
		tr  []byte
		err error
	}
	compile := func(t *testing.T, spec *workload.LoopSpec, tolerant bool, par int) outcome {
		t.Helper()
		l := spec.Gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
			t.Fatalf("hlo: %v", err)
		}
		tr := obs.New()
		c, err := core.Pipeline(l, core.Options{
			Model:           m,
			LatencyTolerant: tolerant,
			BoostDelinquent: tolerant,
			Parallelism:     par,
			Trace:           tr,
		})
		js, jerr := json.Marshal(tr)
		if jerr != nil {
			t.Fatalf("trace marshal: %v", jerr)
		}
		return outcome{c: c, tr: js, err: err}
	}

	for _, b := range benches {
		for i := range b.Loops {
			spec := &b.Loops[i]
			for _, tolerant := range []bool{false, true} {
				seq := compile(t, spec, tolerant, 1)
				for _, par := range []int{2, 4} {
					got := compile(t, spec, tolerant, par)
					name := spec.Name
					if (seq.err == nil) != (got.err == nil) ||
						(seq.err != nil && seq.err.Error() != got.err.Error()) {
						t.Fatalf("%s tol=%v par=%d: err %v, sequential err %v",
							name, tolerant, par, got.err, seq.err)
					}
					if seq.err != nil {
						if !bytes.Equal(seq.tr, got.tr) {
							t.Fatalf("%s tol=%v par=%d: failure traces differ", name, tolerant, par)
						}
						continue
					}
					sc, pc := seq.c, got.c
					if sc.FinalII != pc.FinalII || sc.Stages != pc.Stages ||
						sc.LatencyReduced != pc.LatencyReduced || sc.IIBumps != pc.IIBumps ||
						sc.Attempts != pc.Attempts || sc.UnrollFactor != pc.UnrollFactor {
						t.Fatalf("%s tol=%v par=%d: result header differs: seq II=%d st=%d red=%v bumps=%d att=%d, par II=%d st=%d red=%v bumps=%d att=%d",
							name, tolerant, par,
							sc.FinalII, sc.Stages, sc.LatencyReduced, sc.IIBumps, sc.Attempts,
							pc.FinalII, pc.Stages, pc.LatencyReduced, pc.IIBumps, pc.Attempts)
					}
					if !reflect.DeepEqual(sc.Schedule, pc.Schedule) {
						t.Fatalf("%s tol=%v par=%d: schedules differ:\nseq %+v\npar %+v",
							name, tolerant, par, sc.Schedule, pc.Schedule)
					}
					if !reflect.DeepEqual(sc.Loads, pc.Loads) {
						t.Fatalf("%s tol=%v par=%d: load reports differ", name, tolerant, par)
					}
					if !bytes.Equal(seq.tr, got.tr) {
						t.Fatalf("%s tol=%v par=%d: decision traces differ:\nseq %s\npar %s",
							name, tolerant, par, seq.tr, got.tr)
					}
				}
			}
		}
	}
}

// TestParallelSearchUntraced covers the Trace==nil fast path of the
// speculative search (no buffered traces allocated) and checks the
// schedule still matches the sequential result.
func TestParallelSearchUntraced(t *testing.T) {
	m := machine.Itanium2()
	spec := workload.All()[0].Loops[0]
	run := func(par int) *core.Compiled {
		l := spec.Gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
			t.Fatal(err)
		}
		c, err := core.Pipeline(l, core.Options{Model: m, LatencyTolerant: true, Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return c
	}
	seq, parc := run(1), run(sched.DefaultParallelism()+3)
	if !reflect.DeepEqual(seq.Schedule, parc.Schedule) || seq.FinalII != parc.FinalII {
		t.Fatalf("untraced parallel schedule differs: seq II=%d par II=%d", seq.FinalII, parc.FinalII)
	}
}
