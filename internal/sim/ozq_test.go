package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestOzQHeapMatchesLinearScan drives the OzQ heap and a plain slice,
// drained by a linear scan, with the same random completion times (some
// complete in the cycle they issue in, as with zero-latency levels) and
// checks after every step that both hold the same requests and that the
// heap's head is their minimum.
func TestOzQHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		var q ozq
		var ref []int64
		now := int64(0)
		for step := 0; step < 400; step++ {
			if rng.IntN(3) < 2 {
				c := now + rng.Int64N(24)
				q.push(c)
				ref = append(ref, c)
			} else {
				now += rng.Int64N(6)
				q.drain(now)
				ref = slices.DeleteFunc(ref, func(c int64) bool { return c <= now })
			}
			if len(q) != len(ref) {
				t.Fatalf("trial %d step %d: heap holds %d requests, reference %d", trial, step, len(q), len(ref))
			}
			if len(q) > 0 && q[0] != slices.Min(ref) {
				t.Fatalf("trial %d step %d: heap head %d, reference minimum %d", trial, step, q[0], slices.Min(ref))
			}
			if step%50 == 0 {
				got, want := slices.Clone(q), slices.Clone(ref)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: heap %v, reference %v", trial, step, got, want)
				}
			}
		}
	}
}
