package interp

import (
	"math"
	"testing"
	"testing/quick"

	"ltsp/internal/ir"
)

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 8, 0x1122334455667788)
	if got := m.Load(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("load8 = %#x", got)
	}
	// Little-endian partial reads.
	if got := m.Load(0x1000, 4); got != 0x55667788 {
		t.Errorf("load4 = %#x", got)
	}
	if got := m.Load(0x1000, 2); got != 0x7788 {
		t.Errorf("load2 = %#x", got)
	}
	if got := m.Load(0x1004, 1); got != 0x44 {
		t.Errorf("load1 = %#x", got)
	}
	// Uninitialized memory reads zero.
	if got := m.Load(0x999000, 8); got != 0 {
		t.Errorf("uninit = %#x", got)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := int64(4096 - 3) // straddles the page boundary
	m.Store(addr, 8, -1)
	if got := m.Load(addr, 8); got != -1 {
		t.Errorf("cross-page = %#x", got)
	}
}

func TestMemoryFloat(t *testing.T) {
	m := NewMemory()
	m.StoreF(0x2000, 3.14159)
	if got := m.LoadF(0x2000); got != 3.14159 {
		t.Errorf("loadF = %v", got)
	}
}

func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr int64, val int64) bool {
		addr &= 0xffff_ffff
		m.Store(addr, 8, val)
		return m.Load(addr, 8) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateConstants(t *testing.T) {
	s := NewState()
	if !s.PR[0] {
		t.Error("p0 must be true")
	}
	if s.FR[1] != 1.0 {
		t.Error("f1 must be 1.0")
	}
	// Writes to architectural constants are dropped.
	s.Exec(ir.MovI(ir.GR(0), 42))
	if s.GR[0] != 0 {
		t.Error("r0 written")
	}
}

func TestRotationRename(t *testing.T) {
	s := NewState()
	// Before any rotation, logical == physical.
	if s.RenameGR(40) != 40 || s.RenamePR(20) != 20 {
		t.Error("initial rename not identity")
	}
	// Write r32, rotate: the value must appear in r33.
	s.Exec(ir.MovI(ir.GR(32), 7))
	s.rotate(false)
	if got := s.ReadReg(ir.GR(33)); got != 7 {
		t.Errorf("after rotation r33 = %d, want 7", got)
	}
	// Static registers don't rotate.
	s.Exec(ir.MovI(ir.GR(5), 9))
	s.rotate(false)
	if got := s.ReadReg(ir.GR(5)); got != 9 {
		t.Errorf("static r5 rotated away: %d", got)
	}
}

func TestRotationWraps(t *testing.T) {
	s := NewState()
	s.Exec(ir.MovI(ir.GR(32), 1234))
	for i := 0; i < 96; i++ {
		s.rotate(false)
	}
	// After a full revolution the value is back in r32.
	if got := s.ReadReg(ir.GR(32)); got != 1234 {
		t.Errorf("after 96 rotations r32 = %d", got)
	}
}

func TestCtopSemantics(t *testing.T) {
	s := NewState()
	// trip = 3, 2 stages: LC = 2, EC = 2 -> 4 kernel iterations.
	s.LC, s.EC = 2, 2
	s.PR[RotPRLo] = true
	var injected []bool
	iters := 1
	for {
		taken := s.Ctop()
		injected = append(injected, s.PR[s.RenamePR(RotPRLo)])
		if !taken {
			break
		}
		iters++
	}
	if iters != 4 {
		t.Errorf("kernel iterations = %d, want trip+stages-1 = 4", iters)
	}
	// Injections: 1,1 while LC counts down, then 0s during drain.
	want := []bool{true, true, false, false}
	for i := range want {
		if injected[i] != want[i] {
			t.Errorf("injection %d = %v, want %v", i, injected[i], want[i])
		}
	}
	if s.LC != 0 || s.EC != 0 {
		t.Errorf("final LC=%d EC=%d", s.LC, s.EC)
	}
}

func TestCloopSemantics(t *testing.T) {
	s := NewState()
	s.LC = 4
	n := 1
	for s.Cloop() {
		n++
	}
	if n != 5 {
		t.Errorf("cloop iterations = %d, want 5", n)
	}
}

func TestCmpUncClearsWhenPredicatedOff(t *testing.T) {
	s := NewState()
	pOff := ir.PR(5) // false
	pt, pf := ir.PR(6), ir.PR(7)
	s.PR[6], s.PR[7] = true, true
	cmp := ir.Predicated(pOff, ir.CmpEqI(pt, pf, ir.GR(4), 0))
	s.Exec(cmp)
	if s.PR[6] || s.PR[7] {
		t.Error("cmp.unc under false predicate did not clear destinations")
	}
}

func TestPredicatedOffSkipsSideEffects(t *testing.T) {
	s := NewState()
	s.GR[4] = 0x1000
	off := ir.PR(5)
	ld := ir.Predicated(off, ir.Ld(ir.GR(6), ir.GR(4), 8, 8))
	eff, _ := s.Exec(ld)
	if eff.Executed {
		t.Error("predicated-off load executed")
	}
	if s.GR[4] != 0x1000 {
		t.Error("predicated-off post-increment applied")
	}
}

func TestGroupReadsBeforeWrites(t *testing.T) {
	// Swap in one issue group: both movs must read the old values.
	s := NewState()
	s.GR[4], s.GR[5] = 111, 222
	s.Group([]*ir.Instr{
		ir.Mov(ir.GR(4), ir.GR(5)),
		ir.Mov(ir.GR(5), ir.GR(4)),
	})
	if s.GR[4] != 222 || s.GR[5] != 111 {
		t.Errorf("swap failed: r4=%d r5=%d", s.GR[4], s.GR[5])
	}
}

func TestExecArithmetic(t *testing.T) {
	s := NewState()
	s.GR[4], s.GR[5] = 10, 3
	tests := []struct {
		in   *ir.Instr
		reg  ir.Reg
		want int64
	}{
		{ir.Add(ir.GR(6), ir.GR(4), ir.GR(5)), ir.GR(6), 13},
		{ir.Sub(ir.GR(6), ir.GR(4), ir.GR(5)), ir.GR(6), 7},
		{ir.AddI(ir.GR(6), ir.GR(4), -4), ir.GR(6), 6},
		{ir.Mul(ir.GR(6), ir.GR(4), ir.GR(5)), ir.GR(6), 30},
		{ir.Shladd(ir.GR(6), ir.GR(4), 2, ir.GR(5)), ir.GR(6), 43},
		{&ir.Instr{Op: ir.OpXor, Dsts: []ir.Reg{ir.GR(6)}, Srcs: []ir.Reg{ir.GR(4), ir.GR(5)}}, ir.GR(6), 9},
		{&ir.Instr{Op: ir.OpShlI, Dsts: []ir.Reg{ir.GR(6)}, Srcs: []ir.Reg{ir.GR(4)}, Imm: 3}, ir.GR(6), 80},
	}
	for _, tt := range tests {
		s.Exec(tt.in)
		if got := s.ReadReg(tt.reg); got != tt.want {
			t.Errorf("%v: got %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestExecFP(t *testing.T) {
	s := NewState()
	s.FR[4], s.FR[5], s.FR[6] = 2.0, 3.0, 4.0
	s.Exec(ir.FMA(ir.FR(7), ir.FR(4), ir.FR(5), ir.FR(6)))
	if s.FR[7] != 10.0 {
		t.Errorf("fma = %v", s.FR[7])
	}
	s.Exec(ir.FAdd(ir.FR(7), ir.FR(4), ir.FR(5)))
	if s.FR[7] != 5.0 {
		t.Errorf("fadd = %v", s.FR[7])
	}
	s.Exec(&ir.Instr{Op: ir.OpSetF, Dsts: []ir.Reg{ir.FR(7)}, Srcs: []ir.Reg{ir.GR(4)}})
	if s.FR[7] != float64(s.GR[4]) {
		t.Errorf("setf = %v", s.FR[7])
	}
}

func TestExecCompare(t *testing.T) {
	s := NewState()
	s.GR[4], s.GR[5] = 1, 2
	s.Exec(ir.CmpLt(ir.PR(6), ir.PR(7), ir.GR(4), ir.GR(5)))
	if !s.PR[6] || s.PR[7] {
		t.Error("cmp.lt results wrong")
	}
}

func TestExecMemOps(t *testing.T) {
	s := NewState()
	s.GR[4] = 0x3000
	s.Mem.Store(0x3000, 4, 77)
	eff, _ := s.Exec(ir.Ld(ir.GR(6), ir.GR(4), 4, 4))
	if !eff.Executed || !eff.IsLoad || eff.Addr != 0x3000 {
		t.Errorf("load effect = %+v", eff)
	}
	if s.GR[6] != 77 || s.GR[4] != 0x3004 {
		t.Errorf("load result %d, base %#x", s.GR[6], s.GR[4])
	}
	s.GR[7] = 55
	eff, _ = s.Exec(ir.St(ir.GR(4), ir.GR(7), 4, 4))
	if !eff.IsStore || eff.Addr != 0x3004 {
		t.Errorf("store effect = %+v", eff)
	}
	if s.Mem.Load(0x3004, 4) != 55 || s.GR[4] != 0x3008 {
		t.Error("store semantics wrong")
	}
	eff, _ = s.Exec(ir.Lfetch(ir.GR(4), 8, ir.HintL2))
	if !eff.IsPrefetch || eff.Addr != 0x3008 || s.GR[4] != 0x3010 {
		t.Errorf("lfetch effect = %+v base=%#x", eff, s.GR[4])
	}
}

func TestFPLoadEffect(t *testing.T) {
	s := NewState()
	s.GR[4] = 0x4000
	s.Mem.StoreF(0x4000, 2.5)
	eff, _ := s.Exec(ir.LdF(ir.FR(6), ir.GR(4), 8))
	if !eff.FP || !eff.IsLoad {
		t.Errorf("ldf effect = %+v", eff)
	}
	if s.FR[6] != 2.5 {
		t.Errorf("ldf = %v", s.FR[6])
	}
	if got := s.ReadRegF(ir.FR(6)); got != 2.5 {
		t.Errorf("ReadRegF = %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 8, 42)
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot pages = %d", len(snap))
	}
	pg := snap[1]
	if pg[0] != 42 {
		t.Error("snapshot content wrong")
	}
}

func TestRunSequentialProgram(t *testing.T) {
	// sum += 2 per iteration over 10 iterations.
	p := &Program{
		Name: "sum",
		Groups: [][]*ir.Instr{
			{ir.AddI(ir.GR(4), ir.GR(4), 2)},
		},
		Setup:   []ir.RegInit{{Reg: ir.GR(4), Val: 0}},
		LiveOut: []ir.Reg{ir.GR(4)},
	}
	s, err := Run(p, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReadReg(ir.GR(4)); got != 20 {
		t.Errorf("sum = %d, want 20", got)
	}
}

func TestRunRejectsBadTrip(t *testing.T) {
	p := &Program{Groups: [][]*ir.Instr{{ir.AddI(ir.GR(4), ir.GR(4), 1)}}}
	if _, err := Run(p, 0, nil); err == nil {
		t.Error("trip 0 accepted (counted loops run at least once)")
	}
	if _, err := Run(&Program{}, 5, nil); err == nil {
		t.Error("empty program accepted")
	}
}

func TestKernelIterations(t *testing.T) {
	p := &Program{Pipelined: true, Stages: 5}
	if got := p.KernelIterations(10); got != 14 {
		t.Errorf("kernel iterations = %d, want 14", got)
	}
	q := &Program{}
	if got := q.KernelIterations(10); got != 10 {
		t.Errorf("sequential iterations = %d", got)
	}
}

func TestListing(t *testing.T) {
	p := &Program{
		Name:      "k",
		Pipelined: true,
		Stages:    2,
		Groups:    [][]*ir.Instr{{ir.AddI(ir.GR(4), ir.GR(4), 1)}},
	}
	s := p.Listing()
	if s == "" || !contains(s, "br.ctop") || !contains(s, "II=1") {
		t.Errorf("listing = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestGetFTruncates(t *testing.T) {
	s := NewState()
	s.FR[4] = 7.9
	s.Exec(&ir.Instr{Op: ir.OpGetF, Dsts: []ir.Reg{ir.GR(5)}, Srcs: []ir.Reg{ir.FR(4)}})
	if s.GR[5] != 7 {
		t.Errorf("getf = %d", s.GR[5])
	}
}

func TestFMovIAndNaN(t *testing.T) {
	s := NewState()
	s.Exec(ir.FMovI(ir.FR(4), math.Inf(1)))
	if !math.IsInf(s.FR[4], 1) {
		t.Error("fmovi inf lost")
	}
}

// TestUnknownOpIsError: an op outside the executable set — reachable from
// adversarial wire input — reports an error instead of panicking, both
// from a direct Exec and through Run.
func TestUnknownOpIsError(t *testing.T) {
	s := NewState()
	bad := &ir.Instr{Op: ir.Op(250)}
	if _, err := s.Exec(bad); err == nil {
		t.Fatal("Exec of unknown op: want error")
	}
	p := &Program{Name: "bad", Groups: [][]*ir.Instr{{bad}}}
	if _, err := Run(p, 1, nil); err == nil {
		t.Fatal("Run of unknown op: want error")
	}
}

// refLoad and refStore access memory one byte at a time, the reference the
// word-wide fast paths must agree with.
func refLoad(m *Memory, addr int64, size int) int64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Load(addr+int64(i), 1)) << (8 * i)
	}
	return int64(v)
}

func refStore(m *Memory, addr int64, size int, val int64) {
	for i := 0; i < size; i++ {
		m.Store(addr+int64(i), 1, int64(byte(uint64(val)>>(8*i))))
	}
}

func TestMemoryWideAccessAtPageEnd(t *testing.T) {
	const val = int64(-0x0123456789abcdf0) // every byte distinct and nonzero
	for _, size := range []int{1, 2, 4, 8} {
		for addr := int64(2*pageSize - 8); addr < 2*pageSize; addr++ {
			wide, ref := NewMemory(), NewMemory()
			// Surround the access with a known pattern, so a store that
			// spills past size bytes shows.
			for a := addr - 8; a < addr+16; a++ {
				wide.Store(a, 1, 0x5a)
				ref.Store(a, 1, 0x5a)
			}
			wide.Store(addr, size, val)
			refStore(ref, addr, size, val)
			for a := addr - 8; a < addr+16; a++ {
				if got, want := wide.Load(a, 1), ref.Load(a, 1); got != want {
					t.Fatalf("size %d at %#x: byte %#x = %#x, want %#x", size, addr, a, got, want)
				}
			}
			for _, ls := range []int{1, 2, 4, 8} {
				if got, want := wide.Load(addr, ls), refLoad(ref, addr, ls); got != want {
					t.Fatalf("store %d, load %d at %#x: %#x, want %#x", size, ls, addr, got, want)
				}
			}
		}
	}
}

func TestForkIsCopyOnWrite(t *testing.T) {
	base := NewMemory()
	base.Store(0x1000, 8, 1)
	base.Store(0x3000, 8, 3)
	a, b := base.Fork(), base.Fork()
	if got := a.Load(0x1000, 8); got != 1 {
		t.Fatalf("fork reads %d, want the base's 1", got)
	}
	a.Store(0x1000, 8, 10) // a page the base has
	a.Store(0x9000, 8, 90) // a page it has not
	a.Store(0x2ffc, 8, -1) // across the base's page boundary
	if got := base.Load(0x1000, 8); got != 1 {
		t.Errorf("store to a fork changed the base: %d", got)
	}
	if got := b.Load(0x1000, 8); got != 1 {
		t.Errorf("store to a fork changed a sibling: %d", got)
	}
	if got := base.Load(0x9000, 8) | b.Load(0x9000, 8); got != 0 {
		t.Errorf("a fork's new page leaked: %d", got)
	}
	if got := base.Load(0x3000, 8); got != 3 {
		t.Errorf("cross-page store to a fork changed the base: %#x", got)
	}
	if got := a.Load(0x3000, 8); got != 0xffffffff {
		t.Errorf("fork reads %#x after its cross-page store", got)
	}
	if base.Writes != 2 || b.Writes != 0 {
		t.Errorf("write counters leaked across forks: base %d, sibling %d", base.Writes, b.Writes)
	}
}

func TestForkSnapshot(t *testing.T) {
	base := NewMemory()
	base.Store(0x1000, 8, 1)
	base.Store(0x2000, 8, 2)
	f := base.Fork()
	f.Store(0x2000, 8, 20)
	f.Store(0x5000, 8, 50)
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("fork snapshot has %d pages, want the base's 2 plus 1 private", len(snap))
	}
	want := map[int64]byte{1: 1, 2: 20, 5: 50}
	for pn, b := range want {
		if pg := snap[pn]; pg[0] != b {
			t.Errorf("page %d starts with %d, want %d", pn, pg[0], b)
		}
	}
	if pg := base.Snapshot()[2]; pg[0] != 2 {
		t.Errorf("base page 2 starts with %d after the fork's store", pg[0])
	}
}

func TestForkOfForkPanics(t *testing.T) {
	f := NewMemory().Fork()
	defer func() {
		if recover() == nil {
			t.Error("forking a fork did not panic")
		}
	}()
	f.Fork()
}
