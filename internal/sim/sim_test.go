package sim

import (
	"bytes"
	"strings"
	"testing"

	"ltsp/internal/cache"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

// plainConfig returns a configuration without the fixed entry/exit
// overheads, for exact cycle arithmetic in tests.
func plainConfig() Config {
	return Config{
		Model: machine.Itanium2(),
		Cache: cache.DefaultItanium2(),
	}
}

// seqProgram wraps a body of issue groups as a sequential program.
func seqProgram(setup []ir.RegInit, groups ...[]*ir.Instr) *interp.Program {
	return &interp.Program{Name: "t", Groups: groups, Setup: setup}
}

func TestUnstalledALUProgram(t *testing.T) {
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0}},
		[]*ir.Instr{ir.AddI(ir.GR(4), ir.GR(4), 1)},
	)
	r, err := NewRunner(plainConfig()).Run(p, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 10 {
		t.Errorf("cycles = %d, want 10 (one group per iteration, no stalls)", r.Cycles)
	}
	if r.Acct.ExeBubble != 0 || r.Acct.Unstalled != 10 {
		t.Errorf("acct = %+v", r.Acct)
	}
	if r.State.ReadReg(ir.GR(4)) != 10 {
		t.Error("semantics wrong")
	}
}

func TestStallOnUse(t *testing.T) {
	// Load from cold memory in cycle 0, use in cycle 1: the use must
	// stall until the fill (memory latency 200).
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 128)},
		[]*ir.Instr{ir.AddI(ir.GR(6), ir.GR(5), 1)},
	)
	r, err := NewRunner(plainConfig()).Run(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Acct.ExeBubble < 190 {
		t.Errorf("EXE bubble = %d, want ~199 (stall-on-use)", r.Acct.ExeBubble)
	}
	if r.LoadsByLevel[4] != 1 {
		t.Errorf("memory loads = %d", r.LoadsByLevel[4])
	}
}

func TestStallOnlyOnUseNotOnMiss(t *testing.T) {
	// A load whose result is never used must not stall the pipeline
	// (stall-on-use policy, paper Sec. 2).
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}, {Reg: ir.GR(7), Val: 0}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 128)},
		[]*ir.Instr{ir.AddI(ir.GR(7), ir.GR(7), 1)},
	)
	r, err := NewRunner(plainConfig()).Run(p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Acct.ExeBubble != 0 {
		t.Errorf("EXE bubble = %d, want 0 (no use, no stall)", r.Acct.ExeBubble)
	}
}

func TestPredicatedOffConsumerDoesNotStall(t *testing.T) {
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 128)},
		// p6 is false: the consumer is off and must not wait for r5.
		[]*ir.Instr{ir.Predicated(ir.PR(6), ir.AddI(ir.GR(6), ir.GR(5), 1))},
	)
	r, err := NewRunner(plainConfig()).Run(p, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Acct.ExeBubble != 0 {
		t.Errorf("EXE bubble = %d, want 0", r.Acct.ExeBubble)
	}
}

func TestLatencyCoverageRemovesStall(t *testing.T) {
	// Same loop, L2-resident line: consumer right after the load stalls
	// ~4 cycles; consumer 6 cycles later does not.
	mk := func(gap int) *interp.Program {
		groups := [][]*ir.Instr{{ir.Ld(ir.GR(5), ir.GR(4), 8, 0)}}
		for i := 0; i < gap; i++ {
			groups = append(groups, []*ir.Instr{ir.AddI(ir.GR(7), ir.GR(7), 1)})
		}
		groups = append(groups, []*ir.Instr{ir.AddI(ir.GR(6), ir.GR(5), 1)})
		return seqProgram([]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}}, groups...)
	}
	runner := NewRunner(plainConfig())
	mem := interp.NewMemory()
	// Warm the line into L2 but not L1 (store allocates L2 only).
	warm := seqProgram([]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.St(ir.GR(4), ir.GR(0), 8, 0)})
	if _, err := runner.Run(warm, 1, mem); err != nil {
		t.Fatal(err)
	}

	rShort, err := runner.Run(mk(0), 1, mem)
	if err != nil {
		t.Fatal(err)
	}
	rLong, err := runner.Run(mk(6), 1, mem)
	if err != nil {
		t.Fatal(err)
	}
	if rShort.Acct.ExeBubble == 0 {
		t.Error("uncovered L2 hit did not stall")
	}
	if rLong.Acct.ExeBubble != 0 {
		t.Errorf("covered L2 hit still stalls %d cycles", rLong.Acct.ExeBubble)
	}
}

func TestOzQFullStalls(t *testing.T) {
	// Saturate the OzQ: more than 48 outstanding memory misses.
	cfg := plainConfig()
	var group []*ir.Instr
	var setup []ir.RegInit
	for i := 0; i < 4; i++ {
		base := ir.GR(4 + i)
		setup = append(setup, ir.RegInit{Reg: base, Val: int64(0x100000 + i*0x100000)})
		group = append(group, ir.Ld(ir.GR(40+i), base, 8, 128))
	}
	p := seqProgram(setup, group)
	r, err := NewRunner(cfg).Run(p, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OzQPeak < cfg.Model.OzQCapacity {
		t.Errorf("OzQ peak = %d, never reached capacity", r.OzQPeak)
	}
	if r.Acct.L1DFPUBubble == 0 {
		t.Error("no OzQ-full stalls despite saturation")
	}
	if r.OzQFullStalls != r.Acct.L1DFPUBubble {
		t.Error("OzQ stall accounting inconsistent")
	}
}

func TestFixedOverheadsAccounted(t *testing.T) {
	cfg := plainConfig()
	cfg.FEOverhead = 6
	cfg.FlushOverhead = 7
	cfg.RSECyclesPerExec = 9
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0}},
		[]*ir.Instr{ir.AddI(ir.GR(4), ir.GR(4), 1)},
	)
	r, err := NewRunner(cfg).Run(p, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Acct.FEBubble != 6 || r.Acct.FlushBubble != 7 || r.Acct.RSEBubble != 9 {
		t.Errorf("overheads = %+v", r.Acct)
	}
	if r.Cycles != 10+6+7+9 {
		t.Errorf("cycles = %d", r.Cycles)
	}
	if got := r.Acct.Unstalled + r.Acct.Bubbles(); got != r.Acct.Total {
		t.Errorf("accounting does not sum: %d != %d", got, r.Acct.Total)
	}
}

func TestPersistentClockAcrossRuns(t *testing.T) {
	// A second run against a warm hierarchy must not stall on stale fill
	// timestamps (regression test for the absolute-clock bug).
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 8)},
		[]*ir.Instr{ir.AddI(ir.GR(6), ir.GR(5), 1)},
	)
	runner := NewRunner(plainConfig())
	mem := interp.NewMemory()
	if _, err := runner.Run(p, 8, mem); err != nil {
		t.Fatal(err)
	}
	r2, err := runner.Run(p, 8, mem)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Acct.ExeBubble != 0 {
		t.Errorf("warm run stalls %d cycles (stale fill timestamps?)", r2.Acct.ExeBubble)
	}
}

func TestDropCaches(t *testing.T) {
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 8)},
		[]*ir.Instr{ir.AddI(ir.GR(6), ir.GR(5), 1)},
	)
	runner := NewRunner(plainConfig())
	mem := interp.NewMemory()
	if _, err := runner.Run(p, 8, mem); err != nil {
		t.Fatal(err)
	}
	runner.DropCaches()
	r, err := runner.Run(p, 8, mem)
	if err != nil {
		t.Fatal(err)
	}
	if r.Acct.ExeBubble == 0 {
		t.Error("cold run after DropCaches did not miss")
	}
}

func TestDropCachesKeepsStatsAndHierarchy(t *testing.T) {
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 8)},
	)
	runner := NewRunner(plainConfig())
	h := runner.Hierarchy()
	mem := interp.NewMemory()
	first, err := runner.Run(p, 16, mem)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Stats
	runner.DropCaches()
	if runner.Hierarchy() != h {
		t.Error("DropCaches replaced the hierarchy")
	}
	if h.Stats != before {
		t.Errorf("DropCaches changed the cumulative stats: %+v, was %+v", h.Stats, before)
	}
	second, err := runner.Run(p, 16, mem)
	if err != nil {
		t.Fatal(err)
	}
	// A cold run after the drop misses exactly as the first one did, and
	// its per-run Cache delta is measured against the kept totals.
	if second.Cache != first.Cache {
		t.Errorf("run after DropCaches: cache %+v, first run %+v", second.Cache, first.Cache)
	}
	if h.Stats.Accesses != 2*first.Cache.Accesses {
		t.Errorf("cumulative accesses %d, want %d", h.Stats.Accesses, 2*first.Cache.Accesses)
	}
}

func TestBankConflictPenalty(t *testing.T) {
	cfg := plainConfig()
	cfg.BankConflicts = true
	// Two same-cycle loads mapping to the same L2 bank (same addr bits
	// 4..7), both missing L1.
	setup := []ir.RegInit{
		{Reg: ir.GR(4), Val: 0x100000},
		{Reg: ir.GR(5), Val: 0x200000}, // same bank: bits [7:4] equal
	}
	group := []*ir.Instr{
		ir.Ld(ir.GR(6), ir.GR(4), 8, 0),
		ir.Ld(ir.GR(7), ir.GR(5), 8, 0),
	}
	p := seqProgram(setup, group)
	r, err := NewRunner(cfg).Run(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.BankConflictCount != 1 {
		t.Errorf("bank conflicts = %d, want 1", r.BankConflictCount)
	}
	cfg.BankConflicts = false
	r2, err := NewRunner(cfg).Run(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.BankConflictCount != 0 {
		t.Error("bank conflicts counted while disabled")
	}
}

func TestPipelinedProgramKernelIterations(t *testing.T) {
	// A 2-stage pipelined kernel: trip 5 -> 6 kernel iterations.
	p := &interp.Program{
		Name:      "k",
		Pipelined: true,
		Stages:    2,
		Groups: [][]*ir.Instr{
			{ir.Predicated(ir.PR(16), ir.AddI(ir.GR(4), ir.GR(4), 1))},
		},
		Setup: []ir.RegInit{{Reg: ir.GR(4), Val: 0}},
	}
	r, err := NewRunner(plainConfig()).Run(p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.KernelIters != 6 {
		t.Errorf("kernel iterations = %d, want 6", r.KernelIters)
	}
	// The add ran once per active stage-0 iteration: 5 times.
	if got := r.State.ReadReg(ir.GR(4)); got != 5 {
		t.Errorf("r4 = %d, want 5", got)
	}
}

func TestSimMatchesFunctionalInterp(t *testing.T) {
	// Timing simulation must not change semantics: compare final state
	// against interp.Run.
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}, {Reg: ir.GR(5), Val: 0x20000}},
		[]*ir.Instr{ir.Ld(ir.GR(6), ir.GR(4), 4, 4)},
		[]*ir.Instr{ir.AddI(ir.GR(7), ir.GR(6), 3)},
		[]*ir.Instr{ir.St(ir.GR(5), ir.GR(7), 4, 4)},
	)
	memA, memB := interp.NewMemory(), interp.NewMemory()
	for i := int64(0); i < 20; i++ {
		memA.Store(0x10000+4*i, 4, i*i)
		memB.Store(0x10000+4*i, 4, i*i)
	}
	stA, err := interp.Run(p, 20, memA)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := NewRunner(plainConfig()).Run(p, 20, memB)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		a := stA.Mem.Load(0x20000+4*i, 4)
		b := rB.State.Mem.Load(0x20000+4*i, 4)
		if a != b {
			t.Fatalf("memory differs at %d: %d vs %d", i, a, b)
		}
	}
}

func TestRunRejectsBadTrip(t *testing.T) {
	p := seqProgram(nil, []*ir.Instr{ir.AddI(ir.GR(4), ir.GR(4), 1)})
	if _, err := NewRunner(plainConfig()).Run(p, 0, nil); err == nil {
		t.Error("trip 0 accepted")
	}
}

func TestAccountingAdd(t *testing.T) {
	a := Accounting{Total: 1, Unstalled: 1, ExeBubble: 1, L1DFPUBubble: 1, RSEBubble: 1, FlushBubble: 1, FEBubble: 1}
	b := a
	a.Add(b)
	if a.Total != 2 || a.Bubbles() != 10 {
		t.Errorf("Add/Bubbles wrong: %+v", a)
	}
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := plainConfig()
	cfg.Trace = &buf
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 8)},
		[]*ir.Instr{ir.AddI(ir.GR(6), ir.GR(5), 1)},
	)
	if _, err := NewRunner(cfg).Run(p, 2, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ld8") || !strings.Contains(out, "stall") {
		t.Errorf("trace missing content:\n%s", out)
	}
}

// TestRunRejectsUnmodelableConfig: a geometry the cache levels cannot
// index, or a negative overhead, is an error from Run — not a panic, not
// folded sets, not a clock running backwards.
func TestRunRejectsUnmodelableConfig(t *testing.T) {
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x1000}},
		[]*ir.Instr{ir.Ld(ir.GR(5), ir.GR(4), 8, 8)},
	)
	cases := map[string]func(*Config){
		"L1 sets 0":          func(c *Config) { c.Cache.L1.Sets = 0 },
		"L1 sets 3":          func(c *Config) { c.Cache.L1.Sets = 3 },
		"L2 sets -4":         func(c *Config) { c.Cache.L2.Sets = -4 },
		"L3 ways 0":          func(c *Config) { c.Cache.L3.Ways = 0 },
		"L3 beyond int32":    func(c *Config) { c.Cache.L3.Sets, c.Cache.L3.Ways = 1<<20, 1<<12 },
		"L3 overflowing int": func(c *Config) { c.Cache.L3.Sets, c.Cache.L3.Ways = 1<<62, 1<<62 },
		"OzQ capacity 0": func(c *Config) {
			m := *c.Model
			m.OzQCapacity = 0
			c.Model = &m
		},
		"FEOverhead -1000": func(c *Config) { c.FEOverhead = -1000 },
		"FlushOverhead -1": func(c *Config) { c.FlushOverhead = -1 },
		"RSECyclesPerExec -1": func(c *Config) {
			c.RSECyclesPerExec = -1
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mutate(&cfg)
			r, err := NewRunner(cfg).Run(p, 3, nil)
			if err == nil {
				t.Fatalf("Run accepted the config: %d cycles, acct %+v", r.Cycles, r.Acct)
			}
		})
	}
	if _, err := NewRunner(DefaultConfig()).Run(p, 3, nil); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestOzQZeroLatencyRequestsLeave: with zero-latency levels a request
// completes in the cycle it issues, so the next request of the same group
// must find its OzQ slot free again even though the queue was already
// drained at that cycle.
func TestOzQZeroLatencyRequestsLeave(t *testing.T) {
	cfg := plainConfig()
	m := *cfg.Model
	m.OzQCapacity = 1
	cfg.Model = &m
	cfg.Cache.L2.HitLat, cfg.Cache.L3.HitLat, cfg.Cache.MemLat = 0, 0, 0
	p := seqProgram(
		[]ir.RegInit{{Reg: ir.GR(4), Val: 0x10000}, {Reg: ir.GR(5), Val: 0x20000}},
		[]*ir.Instr{ir.St(ir.GR(4), ir.GR(6), 8, 0), ir.St(ir.GR(5), ir.GR(6), 8, 0)},
	)
	r, err := NewRunner(cfg).Run(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OzQPeak != 1 || r.OzQFullStalls != 0 {
		t.Errorf("OzQ peak %d, full stalls %d; want 1 and 0", r.OzQPeak, r.OzQFullStalls)
	}
}

// TestUnknownOpOnlyFailsWhenExecuted: an op outside the executable set
// is an error when its predicate holds and is skipped like any other
// instruction when it does not.
func TestUnknownOpOnlyFailsWhenExecuted(t *testing.T) {
	bad := func() *ir.Instr { return &ir.Instr{Op: ir.Op(250)} }
	off := seqProgram(nil, []*ir.Instr{ir.Predicated(ir.PR(6), bad()), ir.AddI(ir.GR(4), ir.GR(4), 1)})
	r, err := NewRunner(plainConfig()).Run(off, 3, nil)
	if err != nil {
		t.Fatalf("predicated-off unknown op: %v", err)
	}
	if got := r.State.ReadReg(ir.GR(4)); got != 3 {
		t.Errorf("r4 = %d, want 3", got)
	}
	_, err = NewRunner(plainConfig()).Run(seqProgram(nil, []*ir.Instr{bad()}), 1, nil)
	if err == nil || !strings.Contains(err.Error(), "interp: cannot execute") {
		t.Fatalf("executed unknown op: err = %v, want interp: cannot execute", err)
	}
}
