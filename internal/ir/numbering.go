package ir

import (
	"cmp"
	"slices"
	"sync"
)

// Numbering gives every register a loop names — in its body, setup,
// live-outs and while condition — a dense number, so the compiler's
// per-register tables are slices indexed by it instead of maps keyed by
// Reg. It also holds the number of every operand slot, so passes walk an
// instruction's registers without building a slice per instruction.
//
// A Numbering describes the loop as it was when NumberRegs ran; it must
// be rebuilt after the loop changes.
type Numbering struct {
	// Regs lists the named registers ordered by class, then physical
	// before virtual, then id; a register's number is its index here.
	Regs []Reg

	// ops holds the operand numbers: body[i]'s uses at
	// ops[off[2i]:off[2i+1]] and its defs at ops[off[2i+1]:off[2i+2]],
	// then one entry per setup from off[2n], one per live-out from
	// liveOut, and last the while condition. An absent register (None)
	// is -1.
	ops     []int32
	off     []int32
	liveOut int
}

// NumberRegs numbers the registers the loop names. Its tables grow with
// the number of operands, not with the largest register id: a bucket of
// registers (one class, physical or virtual) whose ids are dense enough
// is numbered through a table indexed by id, any other is sorted.
func (l *Loop) NumberRegs() *Numbering {
	n := len(l.Body)
	sc := numberingPool.Get().(*numberingScratch)
	defer numberingPool.Put(sc)

	// Lay the operands out in slot order, remembering each one's register.
	off := make([]int32, 2*n+1)
	regs := sc.regs[:0]
	for i, in := range l.Body {
		off[2*i] = int32(len(regs))
		regs = append(regs, in.Srcs...)
		if !in.Pred.IsNone() {
			regs = append(regs, in.Pred)
		}
		off[2*i+1] = int32(len(regs))
		regs = append(regs, in.Dsts...)
		if in.Mem != nil && in.Mem.PostInc != 0 && len(in.Srcs) > 0 {
			regs = append(regs, in.baseReg())
		}
	}
	off[2*n] = int32(len(regs))
	for _, s := range l.Setup {
		regs = append(regs, s.Reg)
	}
	liveOut := len(regs)
	regs = append(regs, l.LiveOut...)
	cond := None
	if l.While != nil {
		cond = l.While.Cond
	}
	regs = append(regs, cond)
	sc.regs = regs

	// Per bucket, the id range; a bucket is dense when its ids index a
	// table no larger than a small multiple of the operand count.
	var lo, hi [numBuckets]int
	var seen [numBuckets]bool
	for _, r := range regs {
		b := bucketOf(r)
		if b < 0 {
			continue
		}
		if !seen[b] {
			seen[b], lo[b], hi[b] = true, r.N, r.N
			continue
		}
		lo[b], hi[b] = min(lo[b], r.N), max(hi[b], r.N)
	}
	limit := 4*len(regs) + 256
	var base [numBuckets]int // start of a dense bucket's table, or -1
	size := 0
	for b := range base {
		base[b] = -1
		if seen[b] && lo[b] >= 0 && hi[b] < limit {
			base[b] = size
			size += hi[b] + 1
		}
	}
	if cap(sc.table) < size {
		sc.table = make([]int32, size)
	}
	table := sc.table[:size]
	for i := range table {
		table[i] = -1
	}

	// Mark the dense registers present (-2) and collect the rest, then
	// number bucket by bucket in Regs order.
	sparse := sc.sparse[:0]
	dense := 0
	for _, r := range regs {
		if r.IsNone() {
			continue
		}
		if b := bucketOf(r); b >= 0 && base[b] >= 0 {
			if table[base[b]+r.N] == -1 {
				table[base[b]+r.N] = -2
				dense++
			}
		} else {
			sparse = append(sparse, r)
		}
	}
	slices.SortFunc(sparse, compareRegs)
	sparse = slices.Compact(sparse)
	sc.sparse = sparse
	out := make([]Reg, 0, dense+len(sparse))
	si := 0
	for b := 0; b < numBuckets; b++ {
		if base[b] >= 0 {
			c, virt := bucketClass(b)
			for id := 0; id <= hi[b]; id++ {
				if table[base[b]+id] == -2 {
					table[base[b]+id] = int32(len(out))
					out = append(out, Reg{Class: c, N: id, Virtual: virt})
				}
			}
			continue
		}
		for si < len(sparse) && bucketOf(sparse[si]) == b {
			out = append(out, sparse[si])
			si++
		}
	}
	nums := &Numbering{Regs: append(out, sparse[si:]...), ops: make([]int32, len(regs)), off: off, liveOut: liveOut}
	for k, r := range regs {
		if b := bucketOf(r); b >= 0 && base[b] >= 0 {
			nums.ops[k] = table[base[b]+r.N]
		} else {
			nums.ops[k] = int32(nums.Index(r)) // -1 for None
		}
	}
	return nums
}

// numBuckets counts the (class, physical/virtual) buckets of the three
// register files.
const numBuckets = 6

// bucketOf returns r's bucket, or -1 for None and unknown classes.
func bucketOf(r Reg) int {
	if r.Class < ClassGR || r.Class > ClassPR {
		return -1
	}
	b := 2 * int(r.Class-ClassGR)
	if r.Virtual {
		b++
	}
	return b
}

// bucketClass inverts bucketOf.
func bucketClass(b int) (RegClass, bool) {
	return ClassGR + RegClass(b/2), b%2 == 1
}

// compareRegs orders registers by class, then physical before virtual,
// then id: the order of Numbering.Regs.
func compareRegs(a, b Reg) int {
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if a.Virtual != b.Virtual {
		if a.Virtual {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.N, b.N)
}

// numberingScratch is NumberRegs' working space, pooled across compiles.
type numberingScratch struct {
	regs, sparse []Reg
	table        []int32
}

var numberingPool = sync.Pool{New: func() any { return new(numberingScratch) }}

// Len returns how many registers the loop names.
func (n *Numbering) Len() int { return len(n.Regs) }

// Index returns r's number, or -1 when the loop does not name r.
func (n *Numbering) Index(r Reg) int {
	if r.IsNone() {
		return -1
	}
	k, ok := slices.BinarySearchFunc(n.Regs, r, compareRegs)
	if !ok {
		return -1
	}
	return k
}

// Uses returns the numbers of body[i].AllUses(), in that order: the
// sources, then the qualifying predicate when there is one.
func (n *Numbering) Uses(i int) []int32 { return n.ops[n.off[2*i]:n.off[2*i+1]] }

// Defs returns the numbers of body[i].AllDefs(), in that order: the
// destinations, then the post-incremented base register.
func (n *Numbering) Defs(i int) []int32 { return n.ops[n.off[2*i+1]:n.off[2*i+2]] }

// Setup returns the number of the register Setup[k] initializes.
func (n *Numbering) Setup(k int) int { return int(n.ops[int(n.off[len(n.off)-1])+k]) }

// LiveOut returns the number of LiveOut[k].
func (n *Numbering) LiveOut(k int) int { return int(n.ops[n.liveOut+k]) }

// Cond returns the number of the while condition, or -1 for a counted
// loop.
func (n *Numbering) Cond() int { return int(n.ops[len(n.ops)-1]) }
