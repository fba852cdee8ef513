package regalloc

import (
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
)

func compile(t *testing.T, l *ir.Loop, lat func(*ir.Instr) int, ii int) (*ddg.Graph, *modsched.Schedule) {
	t.Helper()
	g, err := ddg.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Itanium2()
	if lat == nil {
		lat = func(in *ir.Instr) int { return m.LoadLatency(in, false) }
	}
	s, ok := modsched.ScheduleAtII(m, g, ii, lat, modsched.Options{})
	if !ok {
		t.Fatalf("no schedule at II=%d", ii)
	}
	return g, s
}

func runningExample() *ir.Loop {
	l := ir.NewLoop("copyadd")
	r4, r5, r6, r7, r9 := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(ir.Ld(r4, r5, 4, 4))
	l.Append(ir.Add(r7, r4, r9))
	l.Append(ir.St(r6, r7, 4, 4))
	l.Init(r5, 0x1000)
	l.Init(r6, 0x2000)
	l.Init(r9, 1)
	return l
}

func TestAllocateRunningExample(t *testing.T) {
	l := runningExample()
	g, s := compile(t, l, nil, 1)
	m := machine.Itanium2()
	asn, err := Allocate(m, g, s)
	if err != nil {
		t.Fatal(err)
	}
	// r4 (load result) and r7 (add result) rotate; the two post-inc bases
	// and the invariant r9 are static.
	var rot, static int
	for _, a := range AllocMap(asn) {
		switch a.Kind {
		case KindRotating:
			rot++
			if a.Base < 32 {
				t.Errorf("rotating base %d below r32", a.Base)
			}
		case KindStatic:
			static++
			if a.Base >= 32 || a.Base < 1 {
				t.Errorf("static GR base %d outside r1-r31", a.Base)
			}
		}
	}
	if rot != 2 || static != 3 {
		t.Errorf("rot=%d static=%d, want 2/3", rot, static)
	}
	// Fig. 3: the value loaded in stage 0 is read one stage later -> each
	// blade spans 2 registers.
	ldDst := l.Body[0].Dsts[0]
	if a := AllocMap(asn)[ldDst]; a.Width != 2 {
		t.Errorf("load blade width = %d, want 2", a.Width)
	}
	// Stage predicates count into rotating PR usage (3 stages).
	if asn.Stats.RotPR != s.Stages {
		t.Errorf("RotPR = %d, want %d stage predicates", asn.Stats.RotPR, s.Stages)
	}
}

func TestBladesDisjoint(t *testing.T) {
	l := runningExample()
	g, s := compile(t, l, func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 21
		}
		return 1
	}, 1)
	m := machine.Itanium2()
	asn, err := Allocate(m, g, s)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi int }
	var spans []span
	for _, a := range AllocMap(asn) {
		if a.Kind == KindRotating {
			spans = append(spans, span{a.Base, a.Base + a.Width})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("blades overlap: %v and %v", a, b)
			}
		}
	}
}

func TestUseDelta(t *testing.T) {
	l := runningExample()
	g, s := compile(t, l, nil, 1)
	p := NewPlan(machine.Itanium2(), g)
	// add (body 1) uses the load's destination one stage later.
	defOf := func(r ir.Reg) (int, bool) {
		k := p.Regs.Index(r)
		if k < 0 || p.DefID[k] < 0 {
			return 0, false
		}
		return p.DefID[k], true
	}
	def, ok := defOf(l.Body[0].Dsts[0])
	if !ok || def != 0 {
		t.Fatalf("DefID[load dst] = %d,%v want 0,true", def, ok)
	}
	if d := Delta(s, def, 1); d != 1 {
		t.Errorf("Delta = %d, want 1", d)
	}
	// The store base is read by its own instruction: distance 1, same
	// stage -> delta 1.
	def, ok = defOf(l.Body[2].BaseReg())
	if !ok || def != 2 {
		t.Fatalf("DefID[store base] = %d,%v want 2,true", def, ok)
	}
	if d := Delta(s, def, 2); d != 1 {
		t.Errorf("self Delta = %d, want 1", d)
	}
	if _, ok := defOf(ir.VGR(99)); ok {
		t.Error("DefID has a definition for an unknown register")
	}
}

func TestRotatingOverflow(t *testing.T) {
	// Shrink the rotating region so the boosted schedule cannot be
	// allocated: the paper's fallback-ladder trigger.
	m := machine.Itanium2()
	m.RotGR = 8
	l := runningExample()
	g, s := compile(t, l, func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 21 // blade width 22 > 8
		}
		return 1
	}, 1)
	_, err := Allocate(m, g, s)
	oe, ok := err.(*OverflowError)
	if !ok {
		t.Fatalf("want OverflowError, got %v", err)
	}
	if oe.Class != ir.ClassGR || oe.Capacity != 8 {
		t.Errorf("overflow detail: %+v", oe)
	}
	if oe.Error() == "" {
		t.Error("empty error text")
	}
}

func TestCarriedLiveInInitPlacement(t *testing.T) {
	// Pointer chase: pnext is loop-carried with an initial value. The
	// allocator must extend the blade below the definition register and
	// place the init at base+1-stage(def).
	l := ir.NewLoop("chase")
	pnext, pcur := l.NewGR(), l.NewGR()
	l.Append(ir.Mov(pcur, pnext))
	l.Append(ir.Ld(pnext, pcur, 8, 0))
	l.Init(pnext, 0xbeef)
	g, s := compile(t, l, nil, 2)
	m := machine.Itanium2()
	asn, err := Allocate(m, g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.RotInits) != 1 {
		t.Fatalf("RotInits = %v", asn.RotInits)
	}
	init := asn.RotInits[0]
	if init.Val != 0xbeef {
		t.Errorf("init value = %#x", init.Val)
	}
	a := AllocMap(asn)[pnext]
	wantReg := a.Base + 1 - s.Stage(1)
	if init.Reg.N != wantReg {
		t.Errorf("init placed at %s, want r%d (base %d, def stage %d)",
			init.Reg, wantReg, a.Base, s.Stage(1))
	}
}

func TestInPlaceGoesStatic(t *testing.T) {
	l := ir.NewLoop("acc")
	acc, x, b := l.NewGR(), l.NewGR(), l.NewGR()
	l.Init(acc, 0)
	l.Init(b, 0x1000)
	l.Append(ir.Ld(x, b, 8, 8))
	l.Append(ir.Add(acc, acc, x))
	g, s := compile(t, l, nil, 1)
	asn, err := Allocate(machine.Itanium2(), g, s)
	if err != nil {
		t.Fatal(err)
	}
	if a := AllocMap(asn)[acc]; a.Kind != KindStatic {
		t.Errorf("in-place accumulator allocated %v, want static", a.Kind)
	}
	if a := AllocMap(asn)[b]; a.Kind != KindStatic {
		t.Errorf("post-inc base allocated %v, want static", a.Kind)
	}
	if a := AllocMap(asn)[x]; a.Kind != KindRotating {
		t.Errorf("load result allocated %v, want rotating", a.Kind)
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{RotGR: 10, StaticGR: 3, RotFR: 4, StaticFR: 1, RotPR: 5, StaticPR: 2}
	if s.TotalGR() != 13 || s.TotalFR() != 5 || s.TotalPR() != 7 {
		t.Error("totals wrong")
	}
}

func TestFPBladesAndStatics(t *testing.T) {
	l := ir.NewLoop("fp")
	x, a, acc := l.NewFR(), l.NewFR(), l.NewFR()
	bx := l.NewGR()
	l.Init(bx, 0x1000)
	l.InitF(a, 1.5)
	l.InitF(acc, 0)
	l.Append(ir.LdF(x, bx, 8))
	t1 := l.NewFR()
	l.Append(ir.FMul(t1, x, a))
	l.Append(ir.FAdd(acc, acc, t1))
	g, s := compile(t, l, nil, 4)
	asn, err := Allocate(machine.Itanium2(), g, s)
	if err != nil {
		t.Fatal(err)
	}
	if AllocMap(asn)[x].Kind != KindRotating || AllocMap(asn)[t1].Kind != KindRotating {
		t.Error("FP temporaries must rotate")
	}
	if AllocMap(asn)[a].Kind != KindStatic || AllocMap(asn)[acc].Kind != KindStatic {
		t.Error("FP invariant/accumulator must be static")
	}
	if AllocMap(asn)[a].Base < 2 {
		t.Errorf("static FR %d collides with f0/f1", AllocMap(asn)[a].Base)
	}
	if s.Stages < 1 {
		t.Error("bogus schedule")
	}
}
