package cache

import (
	"math/rand"
	"testing"
)

// diffGeometries are the hierarchies the differential test drives: the
// paper's, every level one fully associative set, every level
// direct-mapped, and small odd mixes where a short stream evicts at every
// level.
func diffGeometries() map[string]Config {
	def := DefaultItanium2()
	oneSet, direct := def, def
	for _, l := range []*LevelConfig{&oneSet.L1, &oneSet.L2, &oneSet.L3} {
		l.Sets = 1
	}
	for _, l := range []*LevelConfig{&direct.L1, &direct.L2, &direct.L3} {
		l.Ways = 1
	}
	return map[string]Config{
		"itanium2": def,
		"sets=1":   oneSet,
		"ways=1":   direct,
		"mix-a":    geometry(0x2c5a19e3),
		"mix-b":    geometry(0x7d3e1a95),
		"mix-c":    geometry(0x13579bdf),
		"mix-d":    geometry(0xa5a5f00d),
	}
}

// geometry decodes a small hierarchy from g's bits: per level 1-16 sets,
// 1-5 ways and 16-128 B lines, with hit latencies that grow by level.
func geometry(g uint32) Config {
	next := func(n uint32) int {
		v := int(g % n)
		g /= n
		return v
	}
	lvl := func(name string, lat int) LevelConfig {
		return LevelConfig{Name: name, Sets: 1 << next(5), Ways: 1 + next(5),
			LineShift: uint(4 + next(4)), HitLat: lat}
	}
	fpExtra := next(3)
	l1 := lvl("L1D", 1+next(2))
	l2 := lvl("L2", 3+next(4))
	l3 := lvl("L3", 8+next(8))
	return Config{L1: l1, L2: l2, L3: l3, MemLat: 20 + next(100), FPExtra: fpExtra}
}

// diffOp is one step of a differential stream: an access, or a Reset.
type diffOp struct {
	access
	reset bool
}

// diffStream draws n steps for cfg. Half the addresses fall in a few
// sets of one level, on more tags than any level has ways, so that level
// evicts while the others may keep the line; most others revisit a recent
// address, and a few land anywhere. The clock advances in small steps, so
// many accesses find their line in flight.
func diffStream(cfg Config, seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	var spans [3]int64
	tags := int64(2)
	for i, l := range []LevelConfig{cfg.L1, cfg.L2, cfg.L3} {
		spans[i] = int64(l.Sets) << l.LineShift
		tags = max(tags, int64(2*l.Ways+2))
	}
	resetEvery := 50 + rng.Intn(n/4+1)
	ops := make([]diffOp, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		if i > 0 && i%resetEvery == 0 {
			ops = append(ops, diffOp{reset: true})
		}
		now += rng.Int63n(5)
		if rng.Intn(50) == 0 {
			now += rng.Int63n(500)
		}
		var addr int64
		switch r := rng.Intn(10); {
		case r < 5:
			addr = rng.Int63n(4)<<6 + rng.Int63n(tags)*spans[rng.Intn(3)] + rng.Int63n(128)
		case r < 9 && len(ops) > 0:
			addr = ops[len(ops)-1-rng.Intn(min(len(ops), 24))].addr + rng.Int63n(16)
		default:
			addr = rng.Int63n(1 << 40)
		}
		ops = append(ops, diffOp{access: access{
			now: now, addr: addr,
			fp:   rng.Intn(4) == 0,
			kind: AccessKind(rng.Intn(4)),
		}})
	}
	return ops
}

// diffHierarchy drives ops through Hierarchy and the flat reference and
// fails on the first Result, Stats or Contains answer that differs.
// Contains is compared at every level for the address just accessed, and
// for every address touched so far around each Reset and at the end. It
// returns the final Stats.
func diffHierarchy(t *testing.T, cfg Config, ops []diffOp) Stats {
	t.Helper()
	h, ref := New(cfg), newRef(cfg)
	var touched []int64
	seen := map[int64]bool{}
	contains := func(step int, addrs []int64) {
		t.Helper()
		for _, a := range addrs {
			for lv := 1; lv <= 3; lv++ {
				if got, want := h.Contains(lv, a), ref.Contains(lv, a); got != want {
					t.Fatalf("step %d: Contains(%d, %#x) = %v, reference %v", step, lv, a, got, want)
				}
			}
		}
	}
	for i, op := range ops {
		if op.reset {
			contains(i, touched)
			h.Reset()
			ref.Reset()
			contains(i, touched)
			continue
		}
		got := h.Access(op.now, op.addr, op.fp, op.kind)
		want := ref.Access(op.now, op.addr, op.fp, op.kind)
		if got != want {
			t.Fatalf("step %d: Access(%d, %#x, fp=%v, kind=%d) = %+v, reference %+v",
				i, op.now, op.addr, op.fp, op.kind, got, want)
		}
		if h.Stats != ref.Stats {
			t.Fatalf("step %d: stats %+v, reference %+v", i, h.Stats, ref.Stats)
		}
		contains(i, []int64{op.addr})
		if !seen[op.addr] {
			seen[op.addr] = true
			touched = append(touched, op.addr)
		}
	}
	contains(len(ops), touched)
	return h.Stats
}

func TestHierarchyMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	for name, cfg := range diffGeometries() {
		t.Run(name, func(t *testing.T) {
			var st Stats
			for seed := int64(1); seed <= 3; seed++ {
				s := diffHierarchy(t, cfg, diffStream(cfg, seed, n))
				st.HitsL1 += s.HitsL1
				st.HitsL2 += s.HitsL2
				st.HitsL3 += s.HitsL3
				st.Memory += s.Memory
				st.Merges += s.Merges
			}
			// A stream that never reaches some outcome compares nothing
			// there.
			if st.HitsL1 == 0 || st.HitsL2 == 0 || st.HitsL3 == 0 || st.Memory == 0 || st.Merges == 0 {
				t.Errorf("streams miss an outcome: %+v", st)
			}
		})
	}
}

// FuzzHierarchy holds the lazily filled hierarchy to the flat reference
// on fuzzed geometries and streams. geom 0 is the paper's hierarchy;
// any other value decodes a small one (see geometry).
func FuzzHierarchy(f *testing.F) {
	f.Add(uint32(0), int64(1), uint16(3000))
	f.Add(uint32(0x2c5a19e3), int64(2), uint16(2000))
	f.Add(uint32(0x7d3e1a95), int64(3), uint16(500))
	f.Add(uint32(1), int64(-7), uint16(64))
	f.Fuzz(func(t *testing.T, geom uint32, seed int64, n uint16) {
		cfg := DefaultItanium2()
		if geom != 0 {
			cfg = geometry(geom)
		}
		diffHierarchy(t, cfg, diffStream(cfg, seed, int(n%4096)+1))
	})
}
