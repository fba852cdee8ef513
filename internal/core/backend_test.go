package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/sched/exact"
	"ltsp/internal/workload"
)

// TestNewResolvesBackends: the empty string and "heuristic" resolve to
// the production backend, the other in-tree names resolve to
// themselves, and unknown names fail with the selectable set in the
// message.
func TestNewResolvesBackends(t *testing.T) {
	for name, want := range map[string]string{
		"":               BackendHeuristic,
		BackendHeuristic: BackendHeuristic,
		BackendExact:     BackendExact,
		BackendOracle:    BackendOracle,
	} {
		got, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("Resolve(%q) = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"simplex", "Exact", " heuristic"} {
		got, err := Resolve(name)
		if err == nil {
			t.Fatalf("Resolve(%q) = %q, want an error", name, got)
		}
		for _, want := range []string{name, BackendHeuristic, BackendExact, BackendOracle} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("unknown-backend error %q does not mention %q", err, want)
			}
		}
	}
	if _, err := Pipeline(cancelLoop(), Options{Backend: "simplex"}); err == nil {
		t.Fatal("Pipeline accepted an unknown backend")
	}
}

// TestBackendsSorted: the selectable set is sorted, includes every
// in-tree backend exactly once, and is a copy the caller may modify.
func TestBackendsSorted(t *testing.T) {
	names := Backends()
	want := []string{BackendExact, BackendHeuristic, BackendOracle}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	names[0] = "clobbered"
	if got := Backends(); got[0] != BackendExact {
		t.Fatalf("Backends() shares its slice with callers: %v", got)
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
// under -race, it fails if one stateful exact scheduler is ever shared
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
	for _, backend := range []string{BackendExact, BackendOracle} {
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
