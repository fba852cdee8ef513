package workload

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ltsp/internal/interp"
	"ltsp/internal/profile"
)

func TestSuiteCopiesAreIndependent(t *testing.T) {
	a, b := CPU2006(), CPU2006()
	spec := &a[0].Loops[0]
	want := b[0].Loops[0].Ref[0]
	spec.Ref[0].Trip += 1000
	spec.Ref = append(spec.Ref, profile.TripSample{Trip: 1, Count: 1})
	spec.Weight = 0
	a[0].Name = "changed"
	a[0].Loops = nil
	if got := b[0].Loops[0].Ref; got[0] != want || len(got) != 1 {
		t.Errorf("a change to one copy's Ref leaked into another: %v", got)
	}
	if b[0].Name == "changed" || b[0].Loops == nil || b[0].Loops[0].Weight == 0 {
		t.Error("a change to one copy's benchmark leaked into another")
	}
	if c := CPU2006(); c[0].Loops[0].Ref[0] != want {
		t.Errorf("a change to a copy leaked into the suite table: %v", c[0].Loops[0].Ref)
	}
}

func TestSuiteCopiesShareOneImage(t *testing.T) {
	a, b := All(), All()
	for i := range a {
		for j := range a[i].Loops {
			sa, sb := &a[i].Loops[j], &b[i].Loops[j]
			if sa.image == nil || sa.image != sb.image {
				t.Errorf("%s/%s: copies do not share one image", a[i].Name, sa.Name)
			}
		}
	}
	for _, bench := range a {
		if bench.Name == "429.mcf" && ByName(bench.Name).Loops[0].image != bench.Loops[0].image {
			t.Error("ByName's copy does not share the suite's image")
		}
	}
}

func TestNewMemoryLaysOutOnce(t *testing.T) {
	var inits atomic.Int64
	g, im := IndirectGather(256, 1024, false, 11)
	counted := func(m *interp.Memory) {
		inits.Add(1)
		im(m)
	}
	spec := mkLoop("gather", 0.1, g, counted, uni(8, 1), uni(8, 1), profile.StaticFacts{})
	ref := interp.NewMemory()
	im(ref)
	refSnap := ref.Snapshot()

	copies := []LoopSpec{spec, spec}
	for i := 0; i < 3; i++ {
		for j := range copies {
			m := copies[j].NewMemory()
			snap := m.Snapshot()
			if len(snap) != len(refSnap) {
				t.Fatalf("image has %d pages, InitMem lays out %d", len(snap), len(refSnap))
			}
			for pn, pg := range refSnap {
				if snap[pn] != pg {
					t.Fatalf("image page %d differs from InitMem's layout", pn)
				}
			}
		}
	}
	if n := inits.Load(); n != 1 {
		t.Errorf("InitMem ran %d times for one spec, want 1", n)
	}
}

// TestNewMemoryConcurrentForks stores into forks of one spec's image from
// several goroutines at once (run under -race in CI), half of them
// tracking a run: every fork sees the image unchanged by its siblings'
// stores.
func TestNewMemoryConcurrentForks(t *testing.T) {
	spec := &ByName("401.bzip2").Loops[0]
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			m := spec.NewMemory()
			if w%2 == 0 {
				m.BeginRun()
			}
			addr := int64(arenaA)
			want := m.Load(addr, 8)
			for i := int64(0); i < 64; i++ {
				m.Store(addr+i*4096, 8, w)
			}
			if got := m.Load(addr, 8); got != w {
				errs <- "a fork lost its own store"
			}
			if got := spec.NewMemory().Load(addr, 8); got != want {
				errs <- "a store to one fork reached a fresh fork"
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestNewMemoryForkCostIsFlat: a fork is an overlay on its spec's image,
// so NewMemory allocates as many bytes for 429.mcf/refresh_potential's
// image of thousands of pages as for an image of one page.
func TestNewMemoryForkCostIsFlat(t *testing.T) {
	var big *LoopSpec
	for i, loops := 0, ByName("429.mcf").Loops; i < len(loops); i++ {
		if loops[i].Name == "refresh_potential" {
			big = &loops[i]
		}
	}
	one := mkLoop("one", 0.1, nil, func(m *interp.Memory) { m.Store(0, 8, 1) }, uni(8, 1), uni(8, 1), profile.StaticFacts{})
	if n := len(big.NewMemory().Snapshot()); n < 1000 {
		t.Fatalf("refresh_potential's image has %d pages, want thousands", n)
	}
	bytesPerFork := func(s *LoopSpec) uint64 {
		const forks = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < forks; i++ {
			forkSink = s.NewMemory()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / forks
	}
	one.NewMemory() // lays the image out
	if b, o := bytesPerFork(big), bytesPerFork(&one); b != o {
		t.Errorf("NewMemory allocates %d bytes on refresh_potential's image, %d on a one-page image", b, o)
	}
}

var forkSink *interp.Memory
