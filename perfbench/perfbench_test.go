package main

import "testing"

func TestOpListDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				b, err := w.setup(seed)
				if err != nil {
					t.Fatal(err)
				}
				defer b.close()
				return b.digest()
			}
			a, again, other := digest(1), digest(1), digest(2)
			if a != again {
				t.Errorf("seed 1 gave two op lists: %s and %s", a, again)
			}
			if a == other {
				t.Errorf("seeds 1 and 2 gave the same op list %s", a)
			}
		})
	}
}

func TestSmokeRunsHaveNoErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(runConfig{workload: w.name, seed: 3, seconds: 0.5, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if out.res.Attempted == 0 || out.res.Failed != 0 || !out.res.Correct {
				t.Errorf("%s traced=%t: %d of %d ops failed; facts %v",
					w.name, traced, out.res.Failed, out.res.Attempted, out.facts)
			}
		}
	}
}

func TestDrawListIsStratified(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	for seed := int64(0); seed < 20; seed++ {
		counts := make([]int, len(weights))
		for _, i := range drawList(newRand(seed), weights, 100) {
			counts[i]++
		}
		for i, w := range weights {
			if want := 10 * int(w); counts[i] < want-1 || counts[i] > want+1 {
				t.Fatalf("seed %d: entry %d drawn %d times, want %d±1", seed, i, counts[i], want)
			}
		}
	}
}
