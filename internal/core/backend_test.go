package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/sched"
	"ltsp/internal/sched/exact"
	"ltsp/internal/workload"
)

// TestNewBackendFresh: exact and oracle are built fresh per compile (the
// exact backend keeps per-search state); the heuristic is shared.
func TestNewBackendFresh(t *testing.T) {
	for _, name := range []string{sched.BackendExact, sched.BackendOracle} {
		a, err := newBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newBackend(name)
		if a.Name() != name {
			t.Fatalf("newBackend(%q).Name() = %q", name, a.Name())
		}
		if a == b {
			t.Fatalf("newBackend(%q) returned a shared instance", name)
		}
	}
	for _, name := range []string{"", sched.BackendHeuristic} {
		s, err := newBackend(name)
		if err != nil || s != sched.Heuristic() {
			t.Fatalf("newBackend(%q) = %v, %v; want the shared heuristic", name, s, err)
		}
	}
	if _, err := newBackend("simplex"); err == nil {
		t.Fatal("newBackend accepted an unknown name")
	}
}

// backendLoops returns the loops the concurrent-backend test compiles:
// the small cancellation loop, plus workload loops within and beyond the
// exact backend's size budget, after HLO hints and prefetching.
func backendLoops(t *testing.T, m *machine.Model) []func() *ir.Loop {
	t.Helper()
	gens := []func() *ir.Loop{cancelLoop}
	maxBody := exact.DefaultLimits().MaxBody
	var small, large int
	for _, b := range workload.All() {
		for i := range b.Loops {
			spec := &b.Loops[i]
			gen := func() *ir.Loop {
				l := spec.Gen()
				if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
					t.Errorf("%s: hlo: %v", spec.Name, err)
				}
				return l
			}
			switch n := len(gen().Body); {
			case n <= maxBody/2 && small < 2:
				small++
			case n > maxBody && large < 1:
				large++
			default:
				continue
			}
			gens = append(gens, gen)
		}
	}
	if small != 2 || large != 1 {
		t.Fatalf("found %d small and %d over-budget workload loops, want 2 and 1", small, large)
	}
	return gens
}

// TestBackendsConcurrent compiles the same loops with the exact and
// oracle backends from several goroutines at once. Every result must
// equal a single-goroutine compile, proof flag and trace included. Run
// under -race, it fails if one stateful backend instance is ever shared
// between concurrent compiles.
func TestBackendsConcurrent(t *testing.T) {
	m := machine.Itanium2()
	gens := backendLoops(t, m)
	compile := func(backend string, gen func() *ir.Loop) string {
		tr := obs.New()
		c, err := Pipeline(gen(), Options{Model: m, LatencyTolerant: true, Backend: backend, Trace: tr})
		js, jerr := json.Marshal(tr)
		if jerr != nil {
			t.Errorf("trace marshal: %v", jerr)
		}
		if err != nil {
			return fmt.Sprintf("err %v\n%s", err, js)
		}
		sc, _ := json.Marshal(c.Schedule)
		return fmt.Sprintf("ii=%d stages=%d attempts=%d proven=%v backend=%s\n%s\n%s",
			c.FinalII, c.Stages, c.Attempts, c.ProvenII, c.Backend, sc, js)
	}
	for _, backend := range []string{sched.BackendExact, sched.BackendOracle} {
		want := make([]string, len(gens))
		for i, gen := range gens {
			want[i] = compile(backend, gen)
		}
		const workers = 4
		got := make([][]string, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, gen := range gens {
					got[w] = append(got[w], compile(backend, gen))
				}
			}()
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				for i := range want {
					if got[w][i] != want[i] {
						t.Fatalf("%s: goroutine %d, loop %d differs from a single-goroutine compile:\n got %s\nwant %s",
							backend, w, i, got[w][i], want[i])
					}
				}
			}
		}
	}
}
