package modsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
)

func baseLat(m *machine.Model) ddg.LatencyFn {
	return func(in *ir.Instr) int { return m.LoadLatency(in, false) }
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

func TestResMII(t *testing.T) {
	m := machine.Itanium2()
	l := runningExample()
	// 2 memory ops on 4 M units, 1 A-type, 4 total ops incl. branch on
	// width 6 -> ResMII 1.
	if got := ResMII(m, l.Body); got != 1 {
		t.Errorf("ResMII = %d, want 1", got)
	}
}

func TestResMIIMemoryBound(t *testing.T) {
	m := machine.Itanium2()
	l := ir.NewLoop("mem")
	for i := 0; i < 9; i++ {
		b := l.NewGR()
		l.Init(b, int64(0x1000*i))
		l.Append(ir.Ld(l.NewGR(), b, 8, 8))
	}
	// 9 memory ops on 4 M units -> ceil(9/4) = 3.
	if got := ResMII(m, l.Body); got != 3 {
		t.Errorf("ResMII = %d, want 3", got)
	}
}

func TestResMIIFPBound(t *testing.T) {
	m := machine.Itanium2()
	l := ir.NewLoop("fp")
	a := l.NewFR()
	l.InitF(a, 1)
	for i := 0; i < 7; i++ {
		l.Append(ir.FMul(l.NewFR(), a, a))
	}
	// 7 FP ops on 2 F units -> ceil(7/2) = 4.
	if got := ResMII(m, l.Body); got != 4 {
		t.Errorf("ResMII = %d, want 4", got)
	}
}

func TestResMIIIssueWidthBound(t *testing.T) {
	m := machine.Itanium2()
	l := ir.NewLoop("wide")
	a := l.NewGR()
	l.Init(a, 1)
	for i := 0; i < 13; i++ {
		l.Append(ir.AddI(l.NewGR(), a, 1))
	}
	// 14 ops (incl. branch) / width 6 -> 3.
	if got := ResMII(m, l.Body); got != 3 {
		t.Errorf("ResMII = %d, want 3", got)
	}
}

func TestScheduleRunningExampleII1(t *testing.T) {
	m := machine.Itanium2()
	l := runningExample()
	g, err := ddg.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := ScheduleAtII(m, g, 1, baseLat(m), Options{})
	if !ok {
		t.Fatal("no schedule at II=1")
	}
	if err := s.Validate(m, g, baseLat(m)); err != nil {
		t.Fatal(err)
	}
	if s.Stages != 3 {
		t.Errorf("stages = %d, want 3 (Fig. 2)", s.Stages)
	}
	// Stage structure of Fig. 3: ld stage 0, add stage 1, st stage 2.
	if s.Stage(0) != 0 || s.Stage(1) != 1 || s.Stage(2) != 2 {
		t.Errorf("stages = %d/%d/%d", s.Stage(0), s.Stage(1), s.Stage(2))
	}
}

func TestScheduleLatencyTolerant(t *testing.T) {
	m := machine.Itanium2()
	l := runningExample()
	g, _ := ddg.Build(l)
	lat := func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 21
		}
		return m.Latency(in.Op)
	}
	s, ok := ScheduleAtII(m, g, 1, lat, Options{})
	if !ok {
		t.Fatal("no schedule")
	}
	if err := s.Validate(m, g, lat); err != nil {
		t.Fatal(err)
	}
	// d = 20 buffer stages between load and add (Fig. 4 generalized).
	if got := s.Time[1] - s.Time[0]; got < 21 {
		t.Errorf("load-use distance = %d, want >= 21", got)
	}
	if s.Stages != 23 {
		t.Errorf("stages = %d, want 23", s.Stages)
	}
}

func TestScheduleInfeasibleII(t *testing.T) {
	m := machine.Itanium2()
	l := ir.NewLoop("mem")
	for i := 0; i < 9; i++ {
		b := l.NewGR()
		l.Init(b, int64(0x1000*i))
		l.Append(ir.Ld(l.NewGR(), b, 8, 8))
	}
	g, _ := ddg.Build(l)
	// 9 mem ops cannot fit II=2 (8 M slots).
	if _, ok := ScheduleAtII(m, g, 2, baseLat(m), Options{}); ok {
		t.Error("scheduled 9 memory ops into 8 M slots")
	}
}

func TestScheduleRecurrenceRespected(t *testing.T) {
	m := machine.Itanium2()
	l := ir.NewLoop("chase")
	pnext, pcur := l.NewGR(), l.NewGR()
	l.Append(ir.Mov(pcur, pnext))
	l.Append(ir.Ld(pnext, pcur, 8, 0))
	l.Init(pnext, 0x1000)
	g, _ := ddg.Build(l)
	// RecMII 2: II=1 must fail, II=2 must succeed.
	if _, ok := ScheduleAtII(m, g, 1, baseLat(m), Options{}); ok {
		t.Error("scheduled below RecMII")
	}
	s, ok := ScheduleAtII(m, g, 2, baseLat(m), Options{})
	if !ok {
		t.Fatal("no schedule at RecMII")
	}
	if err := s.Validate(m, g, baseLat(m)); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesViolation(t *testing.T) {
	m := machine.Itanium2()
	l := runningExample()
	g, _ := ddg.Build(l)
	s, _ := ScheduleAtII(m, g, 1, baseLat(m), Options{})
	s.Time[1] = s.Time[0] // add issued with its input not ready
	if err := s.Validate(m, g, baseLat(m)); err == nil {
		t.Error("Validate accepted a dependence violation")
	}
}

func TestAttemptsCounted(t *testing.T) {
	m := machine.Itanium2()
	l := runningExample()
	g, _ := ddg.Build(l)
	s, _ := ScheduleAtII(m, g, 1, baseLat(m), Options{})
	if s.Attempts < len(l.Body) {
		t.Errorf("attempts = %d, want >= body size", s.Attempts)
	}
}

// TestDefaultBudgetRatio pins the documented budget multiplier: the
// scheduler must budget exactly DefaultBudgetRatio * len(body) placements (the loop here is large
// enough that the 32-placement floor does not kick in), observable via
// the SchedEvent it emits.
func TestDefaultBudgetRatio(t *testing.T) {
	if DefaultBudgetRatio != 60 {
		t.Fatalf("DefaultBudgetRatio = %d, want 60", DefaultBudgetRatio)
	}
	m := machine.Itanium2()
	l := runningExample()
	g, _ := ddg.Build(l)
	tr := obs.New()
	if _, ok := ScheduleAtII(m, g, 1, baseLat(m), Options{Trace: tr}); !ok {
		t.Fatal("no schedule")
	}
	want := DefaultBudgetRatio * len(l.Body)
	for _, ev := range tr.Events() {
		se, ok := ev.(obs.SchedEvent)
		if !ok {
			continue
		}
		if se.Budget != want {
			t.Errorf("default budget = %d, want DefaultBudgetRatio*len(body) = %d", se.Budget, want)
		}
		return
	}
	t.Fatal("no SchedEvent emitted")
}

// TestMRTIncrementalConsistency cross-checks the incrementally maintained
// per-row occupancy counters against a from-scratch recount after a
// random sequence of place/remove operations.
func TestMRTIncrementalConsistency(t *testing.T) {
	m := machine.Itanium2()
	rng := rand.New(rand.NewSource(7))
	ops := []ir.Op{ir.OpLd, ir.OpAdd, ir.OpMul, ir.OpSt}
	const n = 24
	tab := newMRT(m, 4, n, new(scratch))
	placed := make(map[int]bool)
	for step := 0; step < 400; step++ {
		op := rng.Intn(n)
		if placed[op] {
			tab.remove(op)
			delete(placed, op)
		} else {
			row := rng.Intn(tab.ii)
			if p, ok := tab.fits(row, ops[op%len(ops)]); ok {
				tab.place(row, op, p)
				placed[op] = true
			}
		}
		for r := range tab.rows {
			var perPort [machine.NumPorts]int
			total := 0
			for _, e := range tab.rows[r].entries {
				perPort[e.port]++
				total++
			}
			if perPort != tab.rows[r].perPort || total != tab.rows[r].total {
				t.Fatalf("step %d row %d: counters %v/%d, recount %v/%d",
					step, r, tab.rows[r].perPort, tab.rows[r].total, perPort, total)
			}
		}
	}
}

// randomLoop mirrors the ddg test generator.
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
		switch rng.Intn(5) {
		case 0, 1:
			d := l.NewGR()
			base := l.NewGR()
			l.Init(base, int64(0x100000+i*0x1000))
			l.Append(ir.Ld(d, base, 8, 8))
			defined = append(defined, d)
		case 2:
			d := l.NewGR()
			l.Append(ir.Add(d, newSrc(), newSrc()))
			defined = append(defined, d)
		case 3:
			d := l.NewGR()
			l.Append(ir.Mul(d, newSrc(), newSrc()))
			defined = append(defined, d)
		default:
			base := l.NewGR()
			l.Init(base, int64(0x800000+i*0x1000))
			l.Append(ir.St(base, newSrc(), 8, 8))
		}
	}
	return l
}

// TestQuickScheduleValidates: for random loops, the iterative modulo
// scheduler must find a schedule within a few IIs of MinII, and every
// schedule it returns must pass full dependence and resource validation.
func TestQuickScheduleValidates(t *testing.T) {
	m := machine.Itanium2()
	f := func(seed int64, sz uint8, boost uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(rng, int(sz%14)+2)
		g, err := ddg.Build(l)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		lat := func(in *ir.Instr) int {
			if in.Op.IsLoad() {
				return 1 + int(boost%22)
			}
			return m.Latency(in.Op)
		}
		minII := ResMII(m, l.Body)
		if r := g.RecMII(lat); r > minII {
			minII = r
		}
		for ii := minII; ii < minII+8; ii++ {
			s, ok := ScheduleAtII(m, g, ii, lat, Options{})
			if !ok {
				continue
			}
			if err := s.Validate(m, g, lat); err != nil {
				t.Fatalf("seed %d ii %d: %v", seed, ii, err)
			}
			return true
		}
		t.Logf("seed %d: no schedule within MinII+8", seed)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickStagesGrowWithLatency: boosting load latencies must never
// change the achieved II at fixed II but increases (or keeps) the stage
// count — the paper's core cost statement.
func TestQuickStagesGrowWithLatency(t *testing.T) {
	m := machine.Itanium2()
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(rng, int(sz%10)+2)
		g, err := ddg.Build(l)
		if err != nil {
			return true
		}
		lo := baseLat(m)
		hi := func(in *ir.Instr) int {
			if in.Op.IsLoad() {
				return 21
			}
			return m.Latency(in.Op)
		}
		ii := ResMII(m, l.Body)
		if r := g.RecMII(hi); r > ii {
			return true // latency is on a recurrence; not comparable
		}
		s1, ok1 := ScheduleAtII(m, g, ii, lo, Options{})
		s2, ok2 := ScheduleAtII(m, g, ii, hi, Options{})
		if !ok1 || !ok2 {
			return true // resource-tightness may defeat one; not a property violation
		}
		return s2.Stages >= s1.Stages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
