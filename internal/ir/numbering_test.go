package ir_test

import (
	"reflect"
	"slices"
	"testing"

	"ltsp/internal/ir"
)

// checkNumbering checks that every operand slot of the loop carries the
// number of its register, that Regs lists each named register once in
// order, and that Index inverts Regs.
func checkNumbering(t *testing.T, name string, l *ir.Loop) *ir.Numbering {
	t.Helper()
	nums := l.NumberRegs()
	named := map[ir.Reg]bool{}
	same := func(where string, k int, r ir.Reg) {
		t.Helper()
		if r.IsNone() {
			if k != -1 {
				t.Errorf("%s: %s: None numbered %d", name, where, k)
			}
			return
		}
		named[r] = true
		if k < 0 || k >= nums.Len() || nums.Regs[k] != r {
			t.Errorf("%s: %s: %s numbered %d", name, where, r, k)
		}
	}
	for i, in := range l.Body {
		uses, defs := nums.Uses(i), nums.Defs(i)
		if len(uses) != len(in.AllUses()) || len(defs) != len(in.AllDefs()) {
			t.Fatalf("%s: body[%d]: %d uses, %d defs; want %d, %d",
				name, i, len(uses), len(defs), len(in.AllUses()), len(in.AllDefs()))
		}
		for j, r := range in.AllUses() {
			same("use", int(uses[j]), r)
		}
		for j, r := range in.AllDefs() {
			same("def", int(defs[j]), r)
		}
	}
	for k, s := range l.Setup {
		same("setup", nums.Setup(k), s.Reg)
	}
	for k, r := range l.LiveOut {
		same("live-out", nums.LiveOut(k), r)
	}
	cond := ir.None
	if l.While != nil {
		cond = l.While.Cond
	}
	same("while condition", nums.Cond(), cond)
	if nums.Len() != len(named) {
		t.Errorf("%s: %d numbers for %d named registers", name, nums.Len(), len(named))
	}
	less := func(a, b ir.Reg) bool {
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Virtual != b.Virtual {
			return b.Virtual
		}
		return a.N < b.N
	}
	for k, r := range nums.Regs {
		if k > 0 && !less(nums.Regs[k-1], r) {
			t.Errorf("%s: Regs out of order at %d: %s after %s", name, k, r, nums.Regs[k-1])
		}
		if got := nums.Index(r); got != k {
			t.Errorf("%s: Index(%s) = %d, want %d", name, r, got, k)
		}
	}
	if got := nums.Index(ir.VGR(1 << 30)); got != -1 {
		t.Errorf("%s: Index of an unnamed register = %d", name, got)
	}
	return nums
}

func TestNumberRegsArchetypes(t *testing.T) {
	for name, gen := range archetypeLoops() {
		checkNumbering(t, name, gen())
	}
}

// TestNumberRegsSparseIDs numbers a loop whose ids are too sparse for a
// table indexed by id — the wire's largest virtual id, an id beyond it,
// a negative physical id, an unknown class — alongside dense ones, and
// checks the operands get the numbers of the same loop with compact ids.
func TestNumberRegsSparseIDs(t *testing.T) {
	build := func(big, huge, neg int) *ir.Loop {
		l := ir.NewLoop("sparse")
		a, b, c := ir.VGR(0), ir.VGR(big), ir.VGR(huge)
		f := ir.VFR(big)
		p := ir.VPR(0)
		l.Append(ir.Ld(a, b, 8, 8))
		l.Append(ir.Add(c, a, ir.GR(neg)))
		l.Append(&ir.Instr{Op: ir.OpSetF, Dsts: []ir.Reg{f}, Srcs: []ir.Reg{c}})
		l.Append(ir.Predicated(p, ir.St(b, c, 8, 0)))
		l.Append(ir.Predicated(p, ir.CmpLtI(p, ir.None, a, 9)))
		l.Init(b, 0x1000)
		l.Init(p, 1)
		l.Setup = append(l.Setup, ir.RegInit{Reg: ir.Reg{Class: 7, N: big}})
		l.LiveOut = []ir.Reg{c, f, ir.GR(8)}
		l.While = &ir.WhileInfo{Cond: p}
		return l
	}
	compact := checkNumbering(t, "compact", build(3, 5, 2))
	sparse := checkNumbering(t, "sparse", build(1<<20, 1<<40, -7))
	for i := 0; i < 5; i++ {
		if !slices.Equal(compact.Uses(i), sparse.Uses(i)) || !slices.Equal(compact.Defs(i), sparse.Defs(i)) {
			t.Errorf("body[%d]: sparse uses %v defs %v, compact %v %v",
				i, sparse.Uses(i), sparse.Defs(i), compact.Uses(i), compact.Defs(i))
		}
	}
	if compact.Len() != sparse.Len() {
		t.Errorf("sparse loop has %d numbers, compact %d", sparse.Len(), compact.Len())
	}
	got := []int{sparse.Setup(0), sparse.Setup(1), sparse.Setup(2), sparse.LiveOut(0), sparse.LiveOut(1), sparse.LiveOut(2), sparse.Cond()}
	want := []int{compact.Setup(0), compact.Setup(1), compact.Setup(2), compact.LiveOut(0), compact.LiveOut(1), compact.LiveOut(2), compact.Cond()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sparse setup/live-out/condition numbers %v, compact %v", got, want)
	}
}
