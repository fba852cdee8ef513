package server

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentObserveSnapshot hammers Observe from many
// goroutines while snapshots are taken concurrently; run under -race in
// CI, it proves the histogram's lock-free counters are sound. Every
// snapshot must be internally consistent: cumulative buckets monotone,
// ending at the count (le_+Inf), and the final snapshot counts every
// observation.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	const (
		writers      = 8
		perWriter    = 2000
		snapshotters = 4
	)
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < snapshotters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.snapshot()
				for i := 1; i < len(s.cum); i++ {
					if s.cum[i] < s.cum[i-1] {
						t.Errorf("buckets not cumulative: le_%s=%d < le_%s=%d",
							boundLabels[i], s.cum[i], boundLabels[i-1], s.cum[i-1])
						return
					}
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * 50 * time.Microsecond)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	s := h.snapshot()
	if want := int64(writers * perWriter); s.cum[numBounds] != want {
		t.Fatalf("final count (le_+Inf) = %d, want %d", s.cum[numBounds], want)
	}
}
