package interp

import (
	"maps"
	"testing"
)

// FuzzMemory interleaves stores, loads, forks, snapshots and tracked
// runs on memories accessed word-wide and on twins accessed one byte at
// a time through refStore and refLoad, with accesses that cross a page
// boundary. Every load must read on both what a plain byte map holds,
// and every snapshot must hold the same pages on both: a page cache that
// served a stale or a base's page would show. A run starts at BeginRun
// and ends at a replay check: both twins must agree on Replays, and when
// it holds, replaying the run's loads and stores must read the same
// values, leave the same snapshot and again report a replay. Memory 0 is
// the base; once it is forked it is only read, and it does not track.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 1, 0xfd, 3, 1, 1, 0xfd, 3, 2, 0, 0, 0, 0, 1, 0xfd, 2, 3, 0, 0, 0, 4, 0, 0, 0, 1, 1, 0xfd, 3, 3, 0, 0, 0})
	// A fork reads a base page, then copies it on a store and reads the
	// copy.
	f.Add([]byte{0, 0, 0x10, 3, 2, 0, 0, 0, 1, 0, 0x10, 3, 0, 0, 0x20, 3, 1, 0, 0x20, 3, 3, 0, 0, 0})
	// The base, then a fork, runs a store to a page it does not read,
	// which replays. The fork then loads a page, and runs a load and a
	// store that changes that page, which does not replay: the page
	// cache must not let the load go unseen.
	f.Add([]byte{5, 0, 0, 0, 0, 1, 0x10, 3, 1, 0, 0x10, 3, 6, 0, 0, 0,
		2, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0x10, 3, 0, 2, 0x90, 3, 6, 0, 0, 0,
		1, 2, 0x90, 1, 5, 0, 0, 0, 1, 2, 0x90, 1, 0, 2, 0x90, 2, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		wide, ref := []*Memory{NewMemory()}, []*Memory{NewMemory()}
		model := []map[int64]byte{{}}
		// runs[i] holds memory i's loads and stores since its BeginRun, or
		// is nil while it runs nothing.
		runs := [][]memOp{nil}
		cur := 0
		for ; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			// Three pages; offsets near either end of a page.
			addr := int64(a%3) * pageSize
			if b&0x80 != 0 {
				addr += pageSize - 1 - int64(b&0x0f)
			} else {
				addr += int64(b & 0x7f)
			}
			size := []int{1, 2, 4, 8}[c&3]
			val := int64(a)<<48 ^ int64(b)<<24 ^ int64(c)*0x0101010101
			switch op % 7 {
			case 0:
				if cur == 0 && len(wide) > 1 {
					continue // a forked base is read-only
				}
				wide[cur].Store(addr, size, val)
				refStore(ref[cur], addr, size, val)
				if runs[cur] != nil {
					runs[cur] = append(runs[cur], memOp{store: true, addr: addr, size: size, val: val})
				}
				for i := 0; i < size; i++ {
					model[cur][addr+int64(i)] = byte(val >> (8 * i))
				}
			case 1:
				var want uint64
				for i := 0; i < size; i++ {
					want |= uint64(model[cur][addr+int64(i)]) << (8 * i)
				}
				if got := wide[cur].Load(addr, size); got != int64(want) {
					t.Fatalf("memory %d: load %d at %#x = %#x, want %#x", cur, size, addr, got, want)
				}
				if got := refLoad(ref[cur], addr, size); got != int64(want) {
					t.Fatalf("memory %d: byte-wise load %d at %#x = %#x, want %#x", cur, size, addr, got, want)
				}
				if runs[cur] != nil {
					runs[cur] = append(runs[cur], memOp{addr: addr, size: size, val: int64(want)})
				}
			case 2:
				if len(wide) < 4 {
					wide, ref = append(wide, wide[0].Fork()), append(ref, ref[0].Fork())
					model = append(model, maps.Clone(model[0]))
					runs = append(runs, nil)
					cur = len(wide) - 1
				}
			case 3:
				if !maps.Equal(wide[cur].Snapshot(), ref[cur].Snapshot()) {
					t.Fatalf("memory %d: snapshot differs from the byte-wise twin", cur)
				}
			case 4:
				cur = int(a) % len(wide)
			case 5:
				if cur == 0 && len(wide) > 1 {
					continue // a forked base does not track
				}
				wide[cur].BeginRun()
				ref[cur].BeginRun()
				runs[cur] = []memOp{}
			case 6:
				if runs[cur] != nil {
					checkReplay(t, cur, wide[cur], ref[cur], runs[cur])
					runs[cur] = nil
				}
			}
		}
		for i := range wide {
			if !maps.Equal(wide[i].Snapshot(), ref[i].Snapshot()) {
				t.Fatalf("memory %d: final snapshot differs from the byte-wise twin", i)
			}
		}
	})
}

// memOp is one load or store of a tracked run; a load's val is what it
// read.
type memOp struct {
	store bool
	addr  int64
	size  int
	val   int64
}

// checkReplay ends the run ops on memory i and its byte-wise twin: both
// must agree on Replays, and when it holds, a rerun of ops on each must
// load what the run loaded, leave the memory as the run left it and
// report a replay again.
func checkReplay(t *testing.T, i int, wide, ref *Memory, ops []memOp) {
	t.Helper()
	replays := wide.Replays()
	if ref.Replays() != replays {
		t.Fatalf("memory %d: Replays is %v word-wide but %v byte-wise", i, replays, ref.Replays())
	}
	if !replays {
		return
	}
	for _, m := range []*Memory{wide, ref} {
		load, store := m.Load, m.Store
		if m == ref {
			load = func(addr int64, size int) int64 { return refLoad(m, addr, size) }
			store = func(addr int64, size int, val int64) { refStore(m, addr, size, val) }
		}
		before := m.Snapshot()
		m.BeginRun()
		for _, op := range ops {
			if op.store {
				store(op.addr, op.size, op.val)
			} else if got := load(op.addr, op.size); got != op.val {
				t.Fatalf("memory %d: the rerun of a run that replays loads %#x at %#x, the run loaded %#x", i, got, op.addr, op.val)
			}
		}
		if !maps.Equal(m.Snapshot(), before) {
			t.Fatalf("memory %d: the rerun of a run that replays changed the memory", i)
		}
		if !m.Replays() {
			t.Fatalf("memory %d: the rerun of a run that replays does not replay", i)
		}
	}
}
