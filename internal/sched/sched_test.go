package sched_test

import (
	"strings"
	"testing"

	"ltsp/internal/sched"
)

// TestNewResolvesBackends: the empty string and "heuristic" resolve to
// the production backend, the other in-tree names resolve to
// themselves, and unknown names fail with the selectable set in the
// message.
func TestNewResolvesBackends(t *testing.T) {
	for name, want := range map[string]string{
		"":                     sched.BackendHeuristic,
		sched.BackendHeuristic: sched.BackendHeuristic,
		sched.BackendExact:     sched.BackendExact,
		sched.BackendOracle:    sched.BackendOracle,
	} {
		got, err := sched.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("Resolve(%q) = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"simplex", "Exact", " heuristic"} {
		got, err := sched.Resolve(name)
		if err == nil {
			t.Fatalf("Resolve(%q) = %q, want an error", name, got)
		}
		for _, want := range []string{name, sched.BackendHeuristic, sched.BackendExact, sched.BackendOracle} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("unknown-backend error %q does not mention %q", err, want)
			}
		}
	}
	if sched.Heuristic().Name() != sched.BackendHeuristic {
		t.Fatalf("Heuristic().Name() = %q", sched.Heuristic().Name())
	}
}

// TestBackendsSorted: the selectable set is sorted, includes every
// in-tree backend exactly once, and is a copy the caller may modify.
func TestBackendsSorted(t *testing.T) {
	names := sched.Backends()
	want := []string{sched.BackendExact, sched.BackendHeuristic, sched.BackendOracle}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	names[0] = "clobbered"
	if got := sched.Backends(); got[0] != sched.BackendExact {
		t.Fatalf("Backends() shares its slice with callers: %v", got)
	}
}
