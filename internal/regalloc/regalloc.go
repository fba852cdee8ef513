// Package regalloc performs rotating register allocation for modulo-
// scheduled loops in the style of Rau et al., "Register Allocation for
// Software Pipelined Loops" (PLDI 1992): every value produced per source
// iteration gets a *blade* of consecutive rotating registers whose width is
// the number of kernel iterations the value stays live, and blades are
// packed into the rotating region of each register file. Values updated in
// place (post-incremented address bases, accumulators) and loop invariants
// are assigned static registers instead. No schedule changes those, so
// NewPlan assigns them once per compile and Plan.Allocate only sizes and
// packs the blades of each schedule.
//
// Allocation failure — the paper's trigger for the pipeliner's fallback
// ladder (reduce non-critical load latencies, then raise the II) — is
// reported as *OverflowError.
package regalloc

import (
	"fmt"
	"slices"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// Kind classifies how a virtual register was allocated.
type Kind uint8

const (
	// KindRotating: the value gets a blade in the rotating region.
	KindRotating Kind = iota
	// KindStatic: in-place updates and loop invariants.
	KindStatic
)

// Alloc is the physical placement of one virtual register.
type Alloc struct {
	Kind Kind
	// Base is the physical register number. For rotating allocations it is
	// the logical register the defining instruction writes; use sites read
	// Base + delta (see Delta).
	Base int
	// Width is the blade width in registers (rotating only).
	Width int
}

// Assignment is the result of allocating one scheduled loop.
type Assignment struct {
	// phys[k] is the allocation of register number k in Plan.Regs. The
	// zero Alloc marks a register without one: no allocation has Base 0,
	// which is hard-wired in every file (r0, f0, p0).
	phys []Alloc
	// StagePredBase is the first rotating predicate (p16); stage s is
	// guarded by PR StagePredBase+s.
	StagePredBase int
	// Stats summarizes register consumption for the paper's Sec. 4.5
	// statistics.
	Stats Stats
	// RotInits are initial values that must be placed into rotating
	// registers before loop entry (loop-carried live-in values).
	RotInits []ir.RegInit
	// Plan is the schedule-independent plan the assignment was made from;
	// code generation reads def sites and in-place registers from it.
	Plan *Plan
}

// Of returns the allocation of register number k in Plan.Regs.
func (a *Assignment) Of(k int) (Alloc, bool) {
	if k < 0 || k >= len(a.phys) || a.phys[k].Base == 0 {
		return Alloc{}, false
	}
	return a.phys[k], true
}

// Each calls f with every allocated register and its allocation, in
// register-number order, for checkers that re-derive the allocation's
// properties on their own.
func (a *Assignment) Each(f func(r ir.Reg, al Alloc)) {
	for k, al := range a.phys {
		if al.Base != 0 {
			f(a.Plan.Regs.Regs[k], al)
		}
	}
}

// Stats counts allocated registers by file.
type Stats struct {
	RotGR, RotFR, RotPR          int // rotating registers consumed (blade widths summed)
	StaticGR, StaticFR, StaticPR int // static registers consumed
	// Spills is the number of prolog/epilog spill+fill pairs forced by
	// static-register pressure beyond the file size (cost paid once per
	// loop execution).
	Spills int
}

// TotalGR returns all general registers the loop consumes.
func (s Stats) TotalGR() int { return s.RotGR + s.StaticGR }

// TotalFR returns all FP registers the loop consumes.
func (s Stats) TotalFR() int { return s.RotFR + s.StaticFR }

// TotalPR returns all predicate registers the loop consumes.
func (s Stats) TotalPR() int { return s.RotPR + s.StaticPR }

// OverflowError reports that the rotating region of a register file cannot
// hold the blades the schedule requires.
type OverflowError struct {
	Class    ir.RegClass
	Need     int
	Capacity int
}

// Error implements error.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("regalloc: rotating %s region overflow: need %d, have %d",
		e.Class, e.Need, e.Capacity)
}

// Delta returns the rotating-register offset a use at body[useID] adds to
// the blade base of the value defined at body[defID]: stage(use) +
// distance - stage(def), where distance is 1 when the definition appears
// at or after the use in program order (the use consumes the previous
// source iteration's value).
func Delta(s *modsched.Schedule, defID, useID int) int {
	d := s.Stage(useID) - s.Stage(defID)
	if defID >= useID {
		d++
	}
	return d
}

// Plan is the schedule-independent half of rotating register allocation,
// built once per compile from the loop's dependence graph: the def sites,
// the in-place set, the rotating candidates with their use sites, and the
// static assignment. Only blade widths and their packing depend on the
// schedule; Allocate computes those per attempt.
type Plan struct {
	// Loop is the loop the plan was built for.
	Loop *ir.Loop
	// Regs numbers the loop's registers. DefID[k] is the instruction that
	// writes register k and InPlace[k] the one that updates it in place,
	// -1 for none (see ddg.Graph.DefSites and InPlaceRegs). All three are
	// shared with the graph.
	Regs           *ir.Numbering
	DefID, InPlace []int
	// StaticErr reports that the static registers cannot hold the
	// in-place values and loop invariants. The schedule changes neither,
	// so when it is set Allocate fails at every II and the fallback
	// ladder cannot help.
	StaticErr error

	m      *machine.Model
	blades []bladeDef // rotating candidates, in def order
	uses   []useSite  // reads of rotating candidates, in body order
	// static (indexed by register number) and staticStats are the static
	// part of every assignment.
	static      []Alloc
	staticStats Stats
}

// bladeDef is one value that gets a blade of rotating registers.
type bladeDef struct {
	r     ir.Reg
	k     int // r's number
	defID int
	// init is the pre-loop value of a loop-carried live-in (hasInit). Its
	// blade extends stage(def) registers below the definition register so
	// the value rotates into the right place: the value a stage-s
	// consumer reads at kernel iteration s+1 must sit s registers below
	// where it will be read.
	init    ir.RegInit
	hasInit bool
}

// useSite is one read of a rotating candidate: a source or the
// qualifying predicate of body[instr].
type useSite struct {
	instr, blade int
}

// NewPlan builds the schedule-independent allocation plan of g's loop for
// machine m. The graph must come from ddg.Build, which guarantees one
// definition per register.
func NewPlan(m *machine.Model, g *ddg.Graph) *Plan {
	l := g.Loop
	nums := g.Numbering()
	nr := nums.Len()
	p := &Plan{Loop: l, Regs: nums, DefID: g.DefSites(), InPlace: g.InPlaceRegs(), m: m,
		static: make([]Alloc, nr)}

	// Virtual registers defined in the body: in-place ones go static,
	// the rest rotate. bladeOf[k] is register k's blade, -1 for none.
	bladeOf := make([]int, nr)
	for k := range bladeOf {
		bladeOf[k] = -1
	}
	var inPlaceDefs []int
	for i := range l.Body {
		for _, d := range nums.Defs(i) {
			if d < 0 || !nums.Regs[d].Virtual {
				continue
			}
			if p.InPlace[d] >= 0 {
				inPlaceDefs = append(inPlaceDefs, int(d))
				continue
			}
			bladeOf[d] = len(p.blades)
			p.blades = append(p.blades, bladeDef{r: nums.Regs[d], k: int(d), defID: i})
		}
	}

	// Use sites of the rotating candidates, and the invariants: virtual
	// registers read but never defined (set up before the loop).
	carried := make([]bool, len(p.blades))
	var invariants []int
	seen := make([]bool, nr)
	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u < 0 {
				continue
			}
			if b := bladeOf[u]; b >= 0 {
				p.uses = append(p.uses, useSite{instr: i, blade: b})
				if p.blades[b].defID >= i {
					carried[b] = true
				}
				continue
			}
			if nums.Regs[u].Virtual && p.DefID[u] < 0 && !seen[u] {
				seen[u] = true
				invariants = append(invariants, int(u))
			}
		}
	}
	for b := range p.blades {
		if carried[b] {
			p.blades[b].init, p.blades[b].hasInit = l.InitEntry(p.blades[b].r)
		}
	}
	// By class, then id: the invariants are all virtual, so that is
	// their numbering order.
	slices.Sort(invariants)

	// Static assignment: in-place defs first, then invariants.
	next := [...]int{
		ir.ClassGR: 1, // r0 is hardwired zero
		ir.ClassFR: 2, // f0/f1 are constants
		ir.ClassPR: 1, // p0 is hardwired true
	}
	limit := [...]int{
		ir.ClassGR: 1 + m.StaticGR,
		ir.ClassFR: 2 + m.StaticFR,
		ir.ClassPR: 1 + m.StaticPR,
	}
	for _, k := range append(inPlaceDefs, invariants...) {
		r := nums.Regs[k]
		n := next[r.Class]
		if n >= limit[r.Class] {
			p.StaticErr = fmt.Errorf("regalloc: %s: static %s register file exhausted (%d in use)",
				l.Name, r.Class, n)
			p.static, p.staticStats = nil, Stats{}
			break
		}
		p.static[k] = Alloc{Kind: KindStatic, Base: n}
		next[r.Class] = n + 1
		p.staticStats.add(r.Class, false, 1)
	}
	return p
}

// Allocate assigns physical registers for the scheduled loop. The graph g
// must be the DDG the schedule was produced from (it supplies the in-place
// classification). It builds a fresh Plan; a compile that allocates at
// several IIs builds the plan once and calls Plan.Allocate.
func Allocate(m *machine.Model, g *ddg.Graph, s *modsched.Schedule) (*Assignment, error) {
	return NewPlan(m, g).Allocate(s)
}

// Allocate assigns physical registers for one schedule of the plan's
// loop. It reports, in this order, a negative rotation delta, a rotating
// region overflow (*OverflowError), and the plan's StaticErr.
func (p *Plan) Allocate(s *modsched.Schedule) (*Assignment, error) {
	l := p.Loop
	// Blade widths: the largest delta over each value's uses. Of the
	// negative deltas, report the first use of the first blade.
	maxDelta := make([]int, len(p.blades))
	bad := -1
	for k, u := range p.uses {
		d := Delta(s, p.blades[u.blade].defID, u.instr)
		if d < 0 {
			if bad < 0 || u.blade < p.uses[bad].blade {
				bad = k
			}
		} else if d > maxDelta[u.blade] {
			maxDelta[u.blade] = d
		}
	}
	if bad >= 0 {
		u := p.uses[bad]
		b := p.blades[u.blade]
		return nil, fmt.Errorf("regalloc: %s: negative rotation delta %d for %s at body[%d]",
			l.Name, Delta(s, b.defID, u.instr), b.r, u.instr)
	}

	asn := &Assignment{
		phys:          make([]Alloc, p.Regs.Len()),
		StagePredBase: 16,
		Stats:         p.staticStats,
		Plan:          p,
	}
	// Pack blades in def order. Stage predicates occupy the first Stages
	// slots of the rotating PR region.
	next := [...]int{
		ir.ClassGR: rotFirst(ir.ClassGR),
		ir.ClassFR: rotFirst(ir.ClassFR),
		ir.ClassPR: rotFirst(ir.ClassPR) + s.Stages,
	}
	for k, b := range p.blades {
		c := b.r.Class
		loExt := 0
		if b.hasInit {
			loExt = s.Stage(b.defID)
		}
		width := maxDelta[k] + 1
		lo := next[c]
		total := loExt + width
		if lo+total > rotFirst(c)+rotSize(p.m, c) {
			return nil, &OverflowError{Class: c, Need: lo + total - rotFirst(c), Capacity: rotSize(p.m, c)}
		}
		// The definition writes base; uses read base + Delta.
		asn.phys[b.k] = Alloc{Kind: KindRotating, Base: lo + loExt, Width: width}
		next[c] = lo + total
		asn.Stats.add(c, true, total)
		// Loop-carried live-in: the pre-loop initial value is placed at
		// lo+1 == base+1-stage(def); after stage(def)+s rotations it is
		// read at base+delta by the stage-s consumer of source iteration
		// 0 (see the derivation in interp's package comment).
		if b.hasInit {
			init := b.init
			init.Reg = ir.Reg{Class: c, N: lo + 1}
			asn.RotInits = append(asn.RotInits, init)
		}
	}
	asn.Stats.RotPR += s.Stages // stage predicates are rotating PRs too

	if p.StaticErr != nil {
		return nil, p.StaticErr
	}
	// The static registers are in place or never defined, so no blade
	// holds them.
	for k, a := range p.static {
		if a.Base != 0 {
			asn.phys[k] = a
		}
	}
	return asn, nil
}

// AllocateTraced is Allocate plus decision-trace emission: one
// obs.RegallocEvent per attempt, tagged with the schedule's II and whether
// the pipeliner had already reduced latencies to base (the fallback
// ladder's first rung) when it asked for this allocation.
func (p *Plan) AllocateTraced(s *modsched.Schedule, tr *obs.Trace, reduced bool) (*Assignment, error) {
	asn, err := p.Allocate(s)
	if tr.On() {
		ev := obs.RegallocEvent{II: s.II, Reduced: reduced, OK: err == nil}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.RotGR, ev.RotFR, ev.RotPR = asn.Stats.RotGR, asn.Stats.RotFR, asn.Stats.RotPR
			ev.Static = asn.Stats.StaticGR + asn.Stats.StaticFR + asn.Stats.StaticPR
		}
		tr.Emit(ev)
	}
	return asn, err
}

// add counts n registers of class c, rotating or static.
func (s *Stats) add(c ir.RegClass, rot bool, n int) {
	switch {
	case c == ir.ClassGR && rot:
		s.RotGR += n
	case c == ir.ClassFR && rot:
		s.RotFR += n
	case c == ir.ClassPR && rot:
		s.RotPR += n
	case c == ir.ClassGR:
		s.StaticGR += n
	case c == ir.ClassFR:
		s.StaticFR += n
	case c == ir.ClassPR:
		s.StaticPR += n
	}
}

// rotFirst is the first register of class c's rotating region.
func rotFirst(c ir.RegClass) int {
	if c == ir.ClassPR {
		return 16
	}
	return 32
}

func rotSize(m *machine.Model, c ir.RegClass) int {
	switch c {
	case ir.ClassGR:
		return m.RotGR
	case ir.ClassFR:
		return m.RotFR
	case ir.ClassPR:
		return m.RotPR
	}
	return 0
}
