package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	c := DefaultItanium2()
	if c.L1.SizeBytes() != 16*1024 {
		t.Errorf("L1 = %d bytes", c.L1.SizeBytes())
	}
	if c.L2.SizeBytes() != 256*1024 {
		t.Errorf("L2 = %d bytes", c.L2.SizeBytes())
	}
	if c.L3.SizeBytes() != 12*1024*1024 {
		t.Errorf("L3 = %d bytes", c.L3.SizeBytes())
	}
	if c.L1.LineSize() != 64 || c.L2.LineSize() != 128 {
		t.Error("line sizes wrong")
	}
}

func TestColdMissAndRefill(t *testing.T) {
	h := New(DefaultItanium2())
	r := h.Access(0, 0x10000, false, Load)
	if r.Level != 4 || r.ReadyAt != 200 || !r.MissedL1 {
		t.Errorf("cold miss = %+v", r)
	}
	// Second access to the same line after the fill: L1 hit.
	r = h.Access(300, 0x10008, false, Load)
	if r.Level != 1 || r.ReadyAt != 301 {
		t.Errorf("warm hit = %+v", r)
	}
	if h.Stats.Memory != 1 || h.Stats.HitsL1 != 1 {
		t.Errorf("stats = %+v", h.Stats)
	}
}

func TestInFlightMerge(t *testing.T) {
	h := New(DefaultItanium2())
	h.Access(0, 0x10000, false, Load) // miss, fills at 200
	r := h.Access(5, 0x10010, false, Load)
	if !r.Merged {
		t.Fatalf("overlapping access not merged: %+v", r)
	}
	if r.ReadyAt != 200 {
		t.Errorf("merged ready = %d, want the in-flight fill time 200", r.ReadyAt)
	}
	if h.Stats.Merges != 1 {
		t.Errorf("merges = %d", h.Stats.Merges)
	}
}

func TestFPLoadBypassesL1(t *testing.T) {
	h := New(DefaultItanium2())
	h.Access(0, 0x20000, false, Load)
	// Line now in L1 and L2; an FP load must be served by L2 with the
	// +1 conversion cycle: 5 + 1.
	r := h.Access(1000, 0x20000, true, Load)
	if r.Level != 2 || r.ReadyAt != 1006 || !r.MissedL1 {
		t.Errorf("fp load = %+v", r)
	}
}

func TestStoreWriteThrough(t *testing.T) {
	h := New(DefaultItanium2())
	r := h.Access(0, 0x30000, false, Store)
	if !r.MissedL1 {
		t.Error("store must pass the L1 (write-through)")
	}
	// Stores do not allocate into L1.
	if h.Contains(1, 0x30000) {
		t.Error("store allocated L1")
	}
	if !h.Contains(2, 0x30000) {
		t.Error("store did not allocate L2")
	}
}

func TestPrefetchL1FillsThrough(t *testing.T) {
	h := New(DefaultItanium2())
	h.Access(0, 0x40000, false, PrefetchL1)
	if !h.Contains(1, 0x40000) || !h.Contains(2, 0x40000) || !h.Contains(3, 0x40000) {
		t.Error("prefetch-L1 did not fill the hierarchy")
	}
	// A later demand load hits L1 once the fill lands.
	r := h.Access(300, 0x40000, false, Load)
	if r.Level != 1 {
		t.Errorf("post-prefetch load served at level %d", r.Level)
	}
}

func TestPrefetchL2Only(t *testing.T) {
	h := New(DefaultItanium2())
	h.Access(0, 0x50000, false, PrefetchL2)
	if h.Contains(1, 0x50000) {
		t.Error("L2-only prefetch filled L1")
	}
	if !h.Contains(2, 0x50000) {
		t.Error("L2-only prefetch missed L2")
	}
	// The demand load pays the L2 hit latency (heuristic 3's exposed
	// latency, which the L2 hint covers).
	r := h.Access(300, 0x50000, false, Load)
	if r.Level != 2 || r.ReadyAt != 305 {
		t.Errorf("demand after L2-only prefetch = %+v", r)
	}
	if h.Stats.Prefetches != 1 {
		t.Errorf("prefetch count = %d", h.Stats.Prefetches)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := DefaultItanium2()
	h := New(cfg)
	setStride := int64(cfg.L1.Sets) << cfg.L1.LineShift // same L1 set
	// Fill one set's 4 ways plus one more.
	for i := int64(0); i <= int64(cfg.L1.Ways); i++ {
		h.Access(i*1000, 0x100000+i*setStride, false, Load)
	}
	// The first line must have been evicted from L1 (LRU) ...
	if h.Contains(1, 0x100000) {
		t.Error("LRU victim still in L1")
	}
	// ... but stays in the much larger L2.
	if !h.Contains(2, 0x100000) {
		t.Error("line lost from L2")
	}
}

func TestL3HitLatency(t *testing.T) {
	cfg := DefaultItanium2()
	h := New(cfg)
	h.Access(0, 0x60000, false, Load)
	// Evict from L1+L2 by filling their sets, then re-access: L3 hit (14).
	l2SetStride := int64(cfg.L2.Sets) << cfg.L2.LineShift
	for i := int64(1); i <= int64(cfg.L2.Ways); i++ {
		h.Access(1000+i*1000, 0x60000+i*l2SetStride, false, Load)
	}
	r := h.Access(100000, 0x60000, false, Load)
	if r.Level != 3 || r.ReadyAt != 100014 {
		t.Errorf("L3 hit = %+v", r)
	}
}

func TestContainsFalseOnBadLevel(t *testing.T) {
	h := New(DefaultItanium2())
	for _, lvl := range []int{-1, 0, 4, 99} {
		if h.Contains(lvl, 0) {
			t.Errorf("Contains(%d, 0) = true for a level the hierarchy does not have", lvl)
		}
	}
}

// TestQuickMonotonicReady: the hierarchy never returns data before the
// request is issued, and hits are never slower than the memory latency
// plus conversion.
func TestQuickMonotonicReady(t *testing.T) {
	h := New(DefaultItanium2())
	now := int64(0)
	f := func(addrRaw int64, fp bool, kindRaw uint8) bool {
		addr := addrRaw & 0xff_ffff
		kind := AccessKind(kindRaw % 4)
		now += 3
		r := h.Access(now, addr, fp, kind)
		if r.ReadyAt < now {
			return false
		}
		return r.ReadyAt <= now+200+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// access is one request of a replayed trace.
type access struct {
	now, addr int64
	fp        bool
	kind      AccessKind
}

// accessTrace is a seeded mix of every access kind over a working set a
// few times the L3's, so the replay evicts at every level.
func accessTrace(seed int64, n int) []access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]access, n)
	now := int64(0)
	for i := range out {
		now += rng.Int63n(4)
		out[i] = access{
			now:  now,
			addr: rng.Int63n(48<<20) &^ 7,
			fp:   rng.Intn(4) == 0,
			kind: AccessKind(rng.Intn(4)),
		}
	}
	return out
}

func TestResetReplaysLikeNew(t *testing.T) {
	trace := accessTrace(18, 200000)
	replay := func(h *Hierarchy, base int64) ([]Result, Stats) {
		before := h.Stats
		out := make([]Result, len(trace))
		for i, a := range trace {
			out[i] = h.Access(base+a.now, a.addr, a.fp, a.kind)
			out[i].ReadyAt -= base
		}
		d := h.Stats
		d.Accesses -= before.Accesses
		d.HitsL1 -= before.HitsL1
		d.HitsL2 -= before.HitsL2
		d.HitsL3 -= before.HitsL3
		d.Memory -= before.Memory
		d.Merges -= before.Merges
		d.Prefetches -= before.Prefetches
		return out, d
	}
	wantRes, wantStats := replay(New(DefaultItanium2()), 0)

	h := New(DefaultItanium2())
	warm, _ := replay(h, 0)
	cum := h.Stats
	h.Reset()
	if h.Stats != cum {
		t.Fatalf("Reset changed the cumulative stats: %+v, was %+v", h.Stats, cum)
	}
	for lv := 1; lv <= 3; lv++ {
		if h.Contains(lv, trace[len(trace)-1].addr) {
			t.Errorf("level %d still holds a line after Reset", lv)
		}
	}
	// Replay later in time, as a runner's persistent clock does.
	gotRes, gotStats := replay(h, warm[len(warm)-1].ReadyAt+1000)
	if gotStats != wantStats {
		t.Errorf("stats after Reset %+v, fresh %+v", gotStats, wantStats)
	}
	for i := range wantRes {
		if gotRes[i] != wantRes[i] {
			t.Fatalf("access %d after Reset: %+v, fresh %+v", i, gotRes[i], wantRes[i])
		}
	}
}
