package interp

import (
	"maps"
	"testing"
)

// FuzzMemory interleaves stores, loads, forks and snapshots on memories
// accessed word-wide and on twins accessed one byte at a time through
// refStore and refLoad, with accesses that cross a page boundary. Every
// load must read on both what a plain byte map holds, and every snapshot
// must hold the same pages on both: a page cache that served a stale or
// a base's page would show. Memory 0 is the base; once it is forked it
// is only read.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 1, 0xfd, 3, 1, 1, 0xfd, 3, 2, 0, 0, 0, 0, 1, 0xfd, 2, 3, 0, 0, 0, 4, 0, 0, 0, 1, 1, 0xfd, 3, 3, 0, 0, 0})
	// A fork reads a base page, then copies it on a store and reads the
	// copy.
	f.Add([]byte{0, 0, 0x10, 3, 2, 0, 0, 0, 1, 0, 0x10, 3, 0, 0, 0x20, 3, 1, 0, 0x20, 3, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		wide, ref := []*Memory{NewMemory()}, []*Memory{NewMemory()}
		model := []map[int64]byte{{}}
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
			switch op % 5 {
			case 0:
				if cur == 0 && len(wide) > 1 {
					continue // a forked base is read-only
				}
				wide[cur].Store(addr, size, val)
				refStore(ref[cur], addr, size, val)
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
			case 2:
				if len(wide) < 4 {
					wide, ref = append(wide, wide[0].Fork()), append(ref, ref[0].Fork())
					model = append(model, maps.Clone(model[0]))
					cur = len(wide) - 1
				}
			case 3:
				if !maps.Equal(wide[cur].Snapshot(), ref[cur].Snapshot()) {
					t.Fatalf("memory %d: snapshot differs from the byte-wise twin", cur)
				}
			case 4:
				cur = int(a) % len(wide)
			}
		}
		for i := range wide {
			if !maps.Equal(wide[i].Snapshot(), ref[i].Snapshot()) {
				t.Fatalf("memory %d: final snapshot differs from the byte-wise twin", i)
			}
		}
	})
}
