package ddg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ltsp/internal/ir"
)

// runningExample builds the paper's Fig. 1 loop.
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

func baseLat(in *ir.Instr) int {
	if in.Op.IsLoad() {
		return 1
	}
	return 1
}

func TestBuildRunningExample(t *testing.T) {
	g, err := Build(runningExample())
	if err != nil {
		t.Fatal(err)
	}
	// Expected edges: ld->add (data), add->st (data), ld->ld (post-inc
	// self, dist 1), st->st (post-inc self, dist 1).
	var self, flow int
	for _, e := range g.Edges {
		if e.From == e.To {
			self++
			if e.Distance != 1 {
				t.Errorf("self edge with distance %d", e.Distance)
			}
		} else {
			flow++
			if e.Distance != 0 {
				t.Errorf("intra-iteration edge %d->%d with distance %d", e.From, e.To, e.Distance)
			}
		}
	}
	if self != 2 || flow != 2 {
		t.Errorf("edges: self=%d flow=%d, want 2/2", self, flow)
	}
}

func TestBuildLoadDataEdge(t *testing.T) {
	g, err := Build(runningExample())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From == 0 && e.To == 1 {
			if !e.LoadData {
				t.Error("ld->add edge not marked LoadData")
			}
			found = true
			// Latency must come from the LatencyFn, not the fixed field.
			if got := g.Latency(e, func(*ir.Instr) int { return 21 }); got != 21 {
				t.Errorf("LoadData latency = %d, want 21", got)
			}
		}
	}
	if !found {
		t.Fatal("no ld->add edge")
	}
}

func TestBuildRejectsDoubleDef(t *testing.T) {
	l := ir.NewLoop("dd")
	a, b := l.NewGR(), l.NewGR()
	l.Init(b, 0)
	l.Append(ir.Mov(a, b))
	l.Append(ir.Mov(a, b))
	if _, err := Build(l); err == nil {
		t.Error("double definition accepted (rotation renaming requires single defs)")
	}
}

func TestBuildRejectsUndefinedVirtual(t *testing.T) {
	l := ir.NewLoop("ud")
	a, b := l.NewGR(), l.NewGR()
	l.Append(ir.Mov(a, b)) // b never defined, never initialized
	if _, err := Build(l); !errors.Is(err, ErrUndefinedRead) {
		t.Errorf("undefined virtual: err = %v, want ErrUndefinedRead", err)
	}
}

func TestBuildLoopCarriedDistance(t *testing.T) {
	// mov pcur = pnext ; ld pnext = [pcur]: the mov reads the previous
	// iteration's load result.
	l := ir.NewLoop("chase")
	pnext, pcur := l.NewGR(), l.NewGR()
	l.Append(ir.Mov(pcur, pnext))
	ld := ir.Ld(pnext, pcur, 8, 0)
	l.Append(ld)
	l.Init(pnext, 0x1000)
	g, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From == 1 && e.To == 0 {
			if e.Distance != 1 || !e.LoadData {
				t.Errorf("carried edge: dist=%d loadData=%v", e.Distance, e.LoadData)
			}
			return
		}
	}
	t.Fatal("no ld->mov carried edge")
}

func TestInPlaceAntiDeps(t *testing.T) {
	// acc updated in place, read by a store: the store must get an
	// anti-edge to the update.
	l := ir.NewLoop("acc")
	acc, x, b := l.NewGR(), l.NewGR(), l.NewGR()
	l.Init(acc, 0)
	l.Init(b, 0x1000)
	l.Append(ir.Ld(x, b, 4, 4))
	l.Append(ir.Add(acc, acc, x))         // in-place
	l.Append(ir.St(l.NewGR(), acc, 8, 0)) // reader of acc
	l.Setup = append(l.Setup, ir.RegInit{Reg: l.Body[2].BaseReg()})
	g, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	ip := g.InPlaceRegs()
	if got := ip[g.Numbering().Index(acc)]; got != 1 {
		t.Fatalf("InPlaceRegs = %v", ip)
	}
	found := false
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From == 2 && e.To == 1 && e.Distance == 1 && e.FixedLatency == 0 {
			found = true
		}
	}
	if !found {
		t.Error("missing anti-dependence store->add for in-place register")
	}
}

func TestMemDepEdges(t *testing.T) {
	l := runningExample()
	l.MemDeps = []ir.MemDep{{From: 0, To: 2, Distance: 1, Latency: 2}}
	g, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind == DepMem {
			found = true
			if e.Distance != 1 || g.Latency(e, baseLat) != 2 {
				t.Errorf("mem edge wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Error("declared memory dependence missing")
	}
}

func TestCyclesRunningExample(t *testing.T) {
	g, _ := Build(runningExample())
	cycles := g.Cycles()
	// Two self-loops (the post-incremented bases).
	if len(cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(cycles))
	}
	for _, c := range cycles {
		if c.DistSum != 1 || len(c.Nodes) != 1 {
			t.Errorf("cycle %+v, want 1-node distance-1 self loop", c)
		}
		if c.MinII(g, baseLat) != 1 {
			t.Errorf("self-loop MinII = %d", c.MinII(g, baseLat))
		}
	}
}

func TestCyclesLoads(t *testing.T) {
	l := ir.NewLoop("chase")
	pnext, pcur := l.NewGR(), l.NewGR()
	l.Append(ir.Mov(pcur, pnext))
	l.Append(ir.Ld(pnext, pcur, 8, 0))
	l.Init(pnext, 0x1000)
	g, _ := Build(l)
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	loads := cycles[0].Loads(g)
	if len(loads) != 1 || loads[0].ID != 1 {
		t.Errorf("cycle loads = %v", loads)
	}
	// Recurrence: mov(1) + ld(1) over distance 1 -> RecMII 2.
	if got := g.RecMII(baseLat); got != 2 {
		t.Errorf("RecMII = %d, want 2", got)
	}
	// With the load at 21 cycles the same cycle forces RecMII 22.
	lat21 := func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 21
		}
		return 1
	}
	if got := g.RecMII(lat21); got != 22 {
		t.Errorf("RecMII(21) = %d, want 22", got)
	}
}

func TestRecMIINoCycles(t *testing.T) {
	l := ir.NewLoop("straight")
	a, b := l.NewGR(), l.NewGR()
	l.Init(a, 1)
	l.Append(ir.AddI(b, a, 2))
	g, _ := Build(l)
	if got := g.RecMII(baseLat); got != 1 {
		t.Errorf("RecMII of acyclic graph = %d, want 1", got)
	}
	if len(g.Cycles()) != 0 {
		t.Error("acyclic graph has cycles")
	}
}

func TestSlackRunningExample(t *testing.T) {
	g, _ := Build(runningExample())
	slack := g.Slack(1, baseLat)
	// At II=1 the ld->add->st chain is the critical path; all three have
	// zero slack relative to it.
	for i, s := range slack {
		if s != 0 {
			t.Errorf("slack[%d] = %d, want 0 on the critical chain", i, s)
		}
	}
}

func TestHeightsOrdering(t *testing.T) {
	g, _ := Build(runningExample())
	h := g.Heights(1, baseLat)
	// ld feeds add feeds st: heights must strictly decrease.
	if !(h[0] > h[1] && h[1] > h[2]) {
		t.Errorf("heights = %v, want strictly decreasing along the chain", h)
	}
}

// randomLoop builds a random but well-formed loop: a mix of loads, ALU ops
// and stores with randomly chosen operands from previously defined or
// initialized registers.
func randomLoop(rng *rand.Rand, n int) *ir.Loop {
	l := ir.NewLoop("rand")
	var defined []ir.Reg
	newSrc := func() ir.Reg {
		if len(defined) == 0 || rng.Intn(3) == 0 {
			r := l.NewGR()
			l.Init(r, int64(rng.Intn(1<<16))*8+0x10000)
			defined = append(defined, r)
			return r
		}
		return defined[rng.Intn(len(defined))]
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			d := l.NewGR()
			base := l.NewGR()
			l.Init(base, int64(0x100000+i*0x1000))
			l.Append(ir.Ld(d, base, 8, 8))
			defined = append(defined, d)
		case 1:
			d := l.NewGR()
			l.Append(ir.Add(d, newSrc(), newSrc()))
			defined = append(defined, d)
		case 2:
			d := l.NewGR()
			l.Append(ir.AddI(d, newSrc(), int64(rng.Intn(100))))
			defined = append(defined, d)
		default:
			base := l.NewGR()
			l.Init(base, int64(0x800000+i*0x1000))
			l.Append(ir.St(base, newSrc(), 8, 8))
		}
	}
	return l
}

// TestQuickRecMIIMatchesCycleEnumeration cross-checks the binary-search
// RecMII against the maximum per-cycle bound from Johnson enumeration on
// random loops.
func TestQuickRecMIIMatchesCycleEnumeration(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(rng, int(sz%12)+2)
		if err := l.Verify(); err != nil {
			t.Fatalf("random loop invalid: %v", err)
		}
		g, err := Build(l)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		lat := func(in *ir.Instr) int {
			if in.Op.IsLoad() {
				return 1 + int(seed%7)
			}
			return 1
		}
		want := 1
		for _, c := range g.Cycles() {
			if v := c.MinII(g, lat); v > want {
				want = v
			}
		}
		// The cycle-based fast path, the Bellman-Ford oracle, and a direct
		// max over the enumeration must all agree.
		return g.RecMII(lat) == want && g.recMIIBellmanFord(lat) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCyclesMemoized pins that enumeration runs once per graph and that the
// cached fixed-latency sums reproduce the edge-walk latency sum under
// arbitrary policies.
func TestCyclesMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randomLoop(rng, 10)
	g, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Cycles()
	second := g.Cycles()
	if len(first) != len(second) {
		t.Fatalf("memoized Cycles changed length: %d vs %d", len(first), len(second))
	}
	if len(first) > 0 && &first[0] != &second[0] {
		t.Error("Cycles re-enumerated instead of returning the memo")
	}
	lat := func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 13
		}
		return 1
	}
	for i := range first {
		c := &first[i]
		if !c.sumsCached {
			t.Fatalf("cycle %d has no cached sums", i)
		}
		walked := 0
		for _, ei := range c.EdgeIdx {
			walked += g.Latency(&g.Edges[ei], lat)
		}
		if got := c.LatencySum(g, lat); got != walked {
			t.Errorf("cycle %d cached LatencySum = %d, edge walk = %d", i, got, walked)
		}
	}
	// A hand-built Cycle (no cache) must still answer via the edge walk.
	if len(first) > 0 {
		bare := Cycle{EdgeIdx: first[0].EdgeIdx, Nodes: first[0].Nodes, DistSum: first[0].DistSum}
		if bare.LatencySum(g, lat) != first[0].LatencySum(g, lat) {
			t.Error("uncached Cycle literal disagrees with cached LatencySum")
		}
	}
}

// TestQuickSlackNonNegative checks slack is always non-negative and zero
// somewhere (the critical path exists).
func TestQuickSlackNonNegative(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(rng, int(sz%10)+2)
		g, err := Build(l)
		if err != nil {
			return false
		}
		ii := g.RecMII(func(*ir.Instr) int { return 1 })
		slack := g.Slack(ii, func(*ir.Instr) int { return 1 })
		sawZero := false
		for _, s := range slack {
			if s < 0 {
				return false
			}
			if s == 0 {
				sawZero = true
			}
		}
		return sawZero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPredicateSelfUseRotates(t *testing.T) {
	// A compare qualified by its own destination predicate (the while-loop
	// validity chain) is NOT in-place: it must rotate.
	l := ir.NewLoop("chain")
	pv := l.NewPR()
	x := l.NewGR()
	l.Init(pv, 1)
	l.Init(x, 5)
	cmp := ir.Predicated(pv, ir.CmpEqI(ir.None, pv, x, 0))
	l.Append(cmp)
	g, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if g.InPlaceRegs()[g.Numbering().Index(pv)] >= 0 {
		t.Error("validity-chain predicate classified in-place")
	}
	// But a data self-use still is.
	l2 := ir.NewLoop("acc")
	acc := l2.NewGR()
	l2.Init(acc, 0)
	l2.Append(ir.AddI(acc, acc, 1))
	g2, err := Build(l2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.InPlaceRegs()[g2.Numbering().Index(acc)] < 0 {
		t.Error("accumulator not classified in-place")
	}
}
