package ltsp

import (
	"testing"
)

// buildExample constructs the paper's running example through the public
// API.
func buildExample(hint Hint) (*Loop, int64, int64) {
	const src, dst = 0x10000, 0x20000
	l := NewLoop("copyadd")
	v, bs, bd, r, k := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = StrideUnit, 4
	ld.Mem.Hint = hint
	l.Append(ld)
	l.Append(Add(r, v, k))
	st := St(bd, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = StrideUnit, 4
	l.Append(st)
	l.Init(bs, src)
	l.Init(bd, dst)
	l.Init(k, 5)
	l.LiveOut = []Reg{bs, bd}
	return l, src, dst
}

func TestCompilePipelines(t *testing.T) {
	l, _, _ := buildExample(HintL3)
	c, err := Compile(l, Options{Mode: ModeNone, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pipelined || c.II != 1 {
		t.Errorf("pipelined=%v II=%d", c.Pipelined, c.II)
	}
	if c.Stages != 23 {
		t.Errorf("stages = %d, want 23 (typical L3 latency 21 + 2)", c.Stages)
	}
	if len(c.Loads) != 1 || c.Loads[0].ClusterK != 21 {
		t.Errorf("loads = %+v", c.Loads)
	}
	if c.HLO == nil {
		t.Error("no HLO report")
	}
}

func TestCompileSequentialFallback(t *testing.T) {
	l, _, _ := buildExample(HintNone)
	off := false
	c, err := Compile(l, Options{Pipeline: &off})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pipelined {
		t.Error("pipelined despite Pipeline=false")
	}
	if len(c.Program.Groups) == 0 {
		t.Error("no sequential schedule")
	}
}

func TestSimulateAndRun(t *testing.T) {
	l, src, dst := buildExample(HintL2)
	c, err := Compile(l, Options{Mode: ModeHLO, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	for i := int64(0); i < 100; i++ {
		mem.Store(src+4*i, 4, i)
	}
	res, err := Simulate(c, 100, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
	for i := int64(0); i < 100; i++ {
		if got := res.State.Mem.Load(dst+4*i, 4); got != i+5 {
			t.Fatalf("dst[%d] = %d, want %d", i, got, i+5)
		}
	}

	// The functional path must agree.
	mem2 := NewMemory()
	for i := int64(0); i < 100; i++ {
		mem2.Store(src+4*i, 4, i)
	}
	st, err := Run(c, 100, mem2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mem.Load(dst, 4) != 5 {
		t.Error("functional run wrong")
	}
}

func TestRunnerWarmCaches(t *testing.T) {
	l, src, _ := buildExample(HintNone)
	c, err := Compile(l, Options{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.Store(src+4*i, 4, i)
	}
	runner := NewRunner(nil)
	r1, err := runner.Run(c.Program, 64, mem)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runner.Run(c.Program, 64, mem)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Acct.ExeBubble > r1.Acct.ExeBubble {
		t.Errorf("warm run stalls more than cold: %d vs %d",
			r2.Acct.ExeBubble, r1.Acct.ExeBubble)
	}
}

func TestDefaultConfigs(t *testing.T) {
	if DefaultSimConfig().Model == nil {
		t.Error("sim config has no model")
	}
	if DefaultSimConfig().Cache.MemLat != 200 {
		t.Error("cache config wrong")
	}
	m := Itanium2()
	if m.OzQCapacity != 48 {
		t.Error("machine model wrong")
	}
}

func TestFacadeIfConvert(t *testing.T) {
	l := NewLoop("diamond")
	x, k, a, b := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	vT, vE, v, st := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	body := []Stmt{
		StmtOf(AddI(x, x, 1)),
		CondOf(&IfRegion{
			Cmp:    CmpLt(l.NewPR(), l.NewPR(), x, k),
			Then:   []Stmt{StmtOf(Add(vT, a, b))},
			Else:   []Stmt{StmtOf(Sub(vE, a, b))},
			Merges: []Merge{{Dst: v, ThenVal: vT, ElseVal: vE}},
		}),
		StmtOf(St(st, v, 8, 8)),
	}
	if err := IfConvert(l, body); err != nil {
		t.Fatal(err)
	}
	l.Init(x, 0)
	l.Init(k, 4)
	l.Init(a, 100)
	l.Init(b, 30)
	l.Init(st, 0x10000)
	c, err := Compile(l, Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Iterations 0..2 have x<4 after increment (x=1..3): 130; then 70.
	want := []int64{130, 130, 130, 70, 70, 70, 70, 70}
	for i, w := range want {
		if got := res.State.Mem.Load(0x10000+int64(8*i), 8); got != w {
			t.Errorf("iteration %d: %d, want %d", i, got, w)
		}
	}
}

func TestFacadeDataSpeculate(t *testing.T) {
	l := NewLoop("spec")
	v, tmp, bl, bs := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(Ld(v, bl, 8, 8))
	l.Append(AddI(tmp, v, 1))
	l.Append(St(bs, tmp, 8, 8))
	l.MemDeps = []MemDep{{From: 2, To: 0, Distance: 1, Latency: 2, MayAlias: true}}
	l.Init(bl, 0x1000)
	l.Init(bs, 0x2000)
	if n := DataSpeculate(l); n != 1 {
		t.Errorf("speculated %d deps", n)
	}
	if _, err := Compile(l, Options{LatencyTolerant: true}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDiagram(t *testing.T) {
	l, _, _ := buildExample(HintNone)
	c, err := Compile(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Diagram(4) == "" {
		t.Error("no diagram for a pipelined compilation")
	}
	off := false
	seq, err := Compile(buildSeq(), Options{Pipeline: &off})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Diagram(4) != "" {
		t.Error("diagram for a sequential compilation")
	}
}

func buildSeq() *Loop {
	l, _, _ := buildExample(HintNone)
	return l
}

func TestFacadeWhileLoop(t *testing.T) {
	// A minimal data-terminated loop through the public API: count the
	// chain length into an accumulator.
	l := NewLoop("countchain")
	pv := l.NewPR()
	pnext, pcur, acc := l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(Predicated(pv, Mov(pcur, pnext)))
	chase := Ld(pnext, pcur, 8, 0)
	chase.Mem.Stride = StridePointerChase
	l.Append(Predicated(pv, chase))
	l.Append(Predicated(pv, AddI(acc, acc, 1)))
	l.Append(Predicated(pv, CmpEqI(l.NewPR(), pv, pnext, 0)))
	l.While = &WhileInfo{Cond: pv}
	l.Init(pv, 1)
	l.Init(pnext, 0x8000)
	l.Init(acc, 0)
	l.LiveOut = []Reg{acc}

	mem := NewMemory()
	for i := int64(0); i < 5; i++ {
		next := int64(0x8000 + 16*(i+1))
		if i == 4 {
			next = 0
		}
		mem.Store(0x8000+16*i, 8, next)
	}
	c, err := Compile(l, Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pipelined || c.Program.WhileQP.IsNone() {
		t.Fatalf("while loop not pipelined with br.wtop: %+v", c)
	}
	res, err := Simulate(c, 100, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.ReadReg(c.Program.LiveOut[0]); got != 5 {
		t.Errorf("chain length = %d, want 5", got)
	}
}

// TestCompileRejectsMalformedLoop checks that a loop violating the IR
// invariants fails compilation with an error instead of panicking inside
// the HLO pass, which indexes the body by instruction ID.
func TestCompileRejectsMalformedLoop(t *testing.T) {
	l := NewLoop("bad")
	v, b := l.NewGR(), l.NewGR()
	ld := Ld(v, b, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = StrideUnit, 4
	l.Append(ld)
	l.Init(b, 0x10000)
	ld.ID = 7
	if _, err := Compile(l, Options{Mode: ModeHLO, Prefetch: true}); err == nil {
		t.Fatal("compiled a loop whose instruction ID does not match its body index")
	}
}
