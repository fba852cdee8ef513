//go:build !race

package modsched

import "testing"

// TestScheduleAtIIAllocations pins what one attempt allocates once the
// scratch pool is warm: nothing when it fails, and only the returned
// Schedule with its Time and Port slices when it succeeds. The race
// detector makes sync.Pool drop items at random, so the test is built
// without it.
func TestScheduleAtIIAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters perturb allocation counts")
	}
	m, g, lat, ii := perfLoop(t)
	if _, ok := ScheduleAtII(m, g, ii-1, lat, Options{}); ok {
		t.Fatal("scheduled below MinII")
	}
	if got := testing.AllocsPerRun(50, func() { ScheduleAtII(m, g, ii-1, lat, Options{}) }); got != 0 {
		t.Errorf("failing attempt allocates %v times, want 0", got)
	}
	if _, ok := ScheduleAtII(m, g, ii, lat, Options{}); !ok {
		t.Fatal("no schedule at MinII")
	}
	if got := testing.AllocsPerRun(50, func() { ScheduleAtII(m, g, ii, lat, Options{}) }); got != 3 {
		t.Errorf("successful attempt allocates %v times, want 3 (Schedule, Time, Port)", got)
	}
}
