package interp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ltsp/internal/ir"
)

// The decoded form numbers the three register files in one index space:
// GR at [0, NumGR), FR at [frBase, prBase), PR at [prBase, NumRegs).
const (
	frBase  = NumGR
	prBase  = NumGR + NumFR
	NumRegs = NumGR + NumFR + NumPR
)

// Per rename base (0 GR, 1 FR, 2 PR): the unified index of the first
// rotating register and the size of the rotating region.
var (
	rotStart = [3]int16{RotBase, frBase + RotBase, prBase + RotPRLo}
	rotLen   = [3]int{rotSize, rotSize, rotPRSz}
)

// Slot is a register operand resolved at decode. A static register is
// its unified index U (F == 0; the zero Slot is r0); a rotating one is
// the unified index of its file's first rotating register, with F - 1
// its rename base and Off its distance into the region. U < 0 marks an
// absent operand.
type Slot struct {
	U   int16
	Off int16
	F   int8
}

var noSlot = Slot{U: -1}

// Access is the cache access a decoded memory instruction makes.
type Access uint8

const (
	NoAccess Access = iota
	AccessLoad
	AccessStore
	AccessPrefetchL1
	AccessPrefetchL2
)

// Inst is one instruction lowered for execution: operands resolved to
// slots, the static facts both engines branch on, and the result latency
// the timing model gives a non-memory op.
type Inst struct {
	Op     ir.Op
	Access Access
	// FP marks an FP load, Unc a compare whose destinations a false
	// predicate clears, BaseIsDst a load whose post-incremented base is
	// also its destination.
	FP, Unc, BaseIsDst bool
	Pred               Slot
	Dst                [2]Slot
	Src                [3]Slot
	Base               Slot
	Size               int32
	Lat                int32
	// Site is the dense index of a memory op's body ID in Code.SiteIDs,
	// or -1.
	Site int32
	Imm  int64
	FImm float64
	Inc  int64 // post-increment
	// In is the instruction decoded, for traces and timelines.
	In *ir.Instr
}

// Code is a Program lowered once per run for both engines: a flat
// instruction array cut into issue groups. Its slices are scratch that
// the next Decode reuses.
type Code struct {
	insts []Inst
	// SiteIDs lists the distinct body IDs of the memory ops, ascending.
	SiteIDs []int
	// MaxGroup is the length of the longest issue group.
	MaxGroup int
	groups   [][]Inst
	prog     *Program
}

// Decode lowers p into c. lat gives the result latency of a non-memory
// op (nil leaves it zero).
func (c *Code) Decode(p *Program, lat func(ir.Op) int) error {
	if len(p.Groups) == 0 {
		return errors.New("interp: program has no groups")
	}
	c.prog, c.MaxGroup = p, 0
	c.insts, c.SiteIDs = c.insts[:0], c.SiteIDs[:0]
	for _, g := range p.Groups {
		c.MaxGroup = max(c.MaxGroup, len(g))
		for _, in := range g {
			d, err := decode(in, lat)
			if err != nil {
				return err
			}
			if d.Access != NoAccess {
				c.SiteIDs = append(c.SiteIDs, in.ID)
			}
			c.insts = append(c.insts, d)
		}
	}
	slices.Sort(c.SiteIDs)
	c.SiteIDs = slices.Compact(c.SiteIDs)
	c.groups = c.groups[:0]
	lo := 0
	for _, g := range p.Groups {
		c.groups = append(c.groups, c.insts[lo:lo+len(g):lo+len(g)])
		lo += len(g)
	}
	for i := range c.insts {
		if in := &c.insts[i]; in.Access != NoAccess {
			k, _ := slices.BinarySearch(c.SiteIDs, in.In.ID)
			in.Site = int32(k)
		}
	}
	return nil
}

func decode(in *ir.Instr, lat func(ir.Op) int) (Inst, error) {
	d := Inst{Op: in.Op, Pred: noSlot, Dst: [2]Slot{noSlot, noSlot}, Src: [3]Slot{noSlot, noSlot, noSlot},
		Base: noSlot, Site: -1, Imm: in.Imm, FImm: in.FImm, In: in}
	if len(in.Dsts) > len(d.Dst) || len(in.Srcs) > len(d.Src) {
		return d, fmt.Errorf("interp: %v has %d destinations and %d sources", in, len(in.Dsts), len(in.Srcs))
	}
	var err error
	slot := func(r ir.Reg) Slot {
		s, e := resolve(r)
		if e != nil {
			err = e
		}
		return s
	}
	d.Pred = slot(in.Pred)
	for i, r := range in.Dsts {
		d.Dst[i] = slot(r)
	}
	for i, r := range in.Srcs {
		d.Src[i] = slot(r)
	}
	switch in.Op {
	case ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpEqI, ir.OpCmpLtI, ir.OpFCmpLt:
		d.Unc = true
	}
	if !in.Op.IsMem() {
		if lat != nil {
			d.Lat = int32(lat(in.Op))
		}
		return d, err
	}
	// A memory op without a base register reads its address from r0.
	d.Base = Slot{}
	if len(in.Srcs) > 0 && d.Src[len(in.Srcs)-1].U >= 0 {
		d.Base = d.Src[len(in.Srcs)-1]
	}
	var hint ir.Hint
	if in.Mem != nil {
		d.Size, d.Inc, hint = int32(in.Mem.Size), in.Mem.PostInc, in.Mem.Hint
	}
	switch {
	case in.Op.IsLoad():
		d.Access, d.FP = AccessLoad, in.Op == ir.OpLdF
		d.BaseIsDst = len(in.Dsts) > 0 && len(in.Srcs) > 0 && in.Srcs[len(in.Srcs)-1] == in.Dsts[0]
	case in.Op.IsStore():
		d.Access = AccessStore
	case hint == ir.HintL2:
		d.Access = AccessPrefetchL2
	default:
		d.Access = AccessPrefetchL1
	}
	return d, err
}

// resolve turns a register into its slot: the rotating part of a file
// is renamed at run time, modulo the region's size as Rename* does.
func resolve(r ir.Reg) (Slot, error) {
	var base, lo, f int
	switch r.Class {
	case ir.ClassNone:
		return noSlot, nil
	case ir.ClassGR:
		lo = RotBase
	case ir.ClassFR:
		base, lo, f = frBase, RotBase, 1
	case ir.ClassPR:
		base, lo, f = prBase, RotPRLo, 2
	default:
		return noSlot, fmt.Errorf("interp: register %v has no file", r)
	}
	switch {
	case r.N < 0:
		return noSlot, fmt.Errorf("interp: register %v outside its file", r)
	case r.N < lo:
		return Slot{U: int16(base + r.N)}, nil
	}
	return Slot{U: rotStart[f], Off: int16((r.N - lo) % rotLen[f]), F: int8(f + 1)}, nil
}

// Index returns the unified register index a slot names under the
// current rotation.
func (s *State) Index(sl Slot) int {
	if sl.F == 0 {
		return int(sl.U)
	}
	x := int(sl.Off) + s.rrb[sl.F-1]
	if n := rotLen[sl.F-1]; x >= n {
		x -= n
	}
	return int(sl.U) + x
}

// Pred reads in's qualifying predicate: its unified index (-1 when the
// instruction is unpredicated) and whether it holds.
func (s *State) Pred(in *Inst) (int, bool) {
	if in.Pred.U < 0 {
		return -1, true
	}
	u := s.Index(in.Pred)
	return u, s.PR[u-prBase]
}

// Write is a register write an issue group defers to its end: in-order
// issue reads every operand at dispersal, before any result lands.
type Write struct {
	U int32
	// Site is the load site (Inst.Site) whose data this is, or -1.
	Site int32
	// Ready is the result's latency in cycles; for a load's data, whose
	// latency only the cache knows, the timing model sets the cycle the
	// data arrives.
	Ready int64
	Bits  uint64 // an int64, a float64's bits, or a predicate's 0/1
}

func (s *State) def(sl Slot, bits uint64, site int32, ready int64) {
	if sl.U >= 0 {
		s.Pending = append(s.Pending, Write{U: int32(s.Index(sl)), Site: site, Ready: ready, Bits: bits})
	}
}

// Retire applies a deferred write. Writes to the constants r0, f0, f1
// and p0 are dropped.
func (s *State) Retire(w *Write) {
	switch u := int(w.U); {
	case u < frBase:
		if u != 0 {
			s.GR[u] = int64(w.Bits)
		}
	case u < prBase:
		if u > frBase+1 {
			s.FR[u-frBase] = math.Float64frombits(w.Bits)
		}
	case u != prBase:
		s.PR[u-prBase] = w.Bits != 0
	}
}

func (s *State) gr(sl Slot) int64   { return s.GR[s.Index(sl)] }
func (s *State) fr(sl Slot) float64 { return s.FR[s.Index(sl)-frBase] }
func (s *State) pr(sl Slot) bool    { return s.PR[s.Index(sl)-prBase] }

func fbits(v float64) uint64 { return math.Float64bits(v) }

func bbits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Step executes in, whose qualifying predicate reads on: stores go to
// memory at once and register results to s.Pending. It returns the
// effective address (before post-increment) of a memory access. An op
// outside the executable set is an error only when it executes; it is
// reachable from adversarial wire input.
func (s *State) Step(in *Inst, on bool) (addr int64, err error) {
	if !on {
		// cmp.unc semantics: a predicated-off compare clears both
		// destination predicates. This is what turns consumer
		// instructions off during pipeline fill/drain when their stage's
		// compare did not run.
		if in.Unc {
			s.def(in.Dst[0], 0, -1, 1)
			s.def(in.Dst[1], 0, -1, 1)
		}
		return 0, nil
	}
	d, a, b, lat := in.Dst[0], in.Src[0], in.Src[1], int64(in.Lat)
	gr := func(v int64) { s.def(d, uint64(v), -1, lat) }
	fr := func(v float64) { s.def(d, fbits(v), -1, lat) }
	cmp := func(res bool) {
		s.def(in.Dst[0], bbits(res), -1, lat)
		s.def(in.Dst[1], bbits(!res), -1, lat)
	}
	switch in.Op {
	case ir.OpNop:
	case ir.OpMovI:
		gr(in.Imm)
	case ir.OpMov:
		gr(s.gr(a))
	case ir.OpAdd:
		gr(s.gr(a) + s.gr(b))
	case ir.OpSub:
		gr(s.gr(a) - s.gr(b))
	case ir.OpAddI:
		gr(s.gr(a) + in.Imm)
	case ir.OpAnd:
		gr(s.gr(a) & s.gr(b))
	case ir.OpOr:
		gr(s.gr(a) | s.gr(b))
	case ir.OpXor:
		gr(s.gr(a) ^ s.gr(b))
	case ir.OpShlI:
		gr(s.gr(a) << uint(in.Imm&63))
	case ir.OpShrI:
		gr(s.gr(a) >> uint(in.Imm&63))
	case ir.OpShladd:
		gr((s.gr(a) << uint(in.Imm&63)) + s.gr(b))
	case ir.OpMul:
		gr(s.gr(a) * s.gr(b))
	case ir.OpCmpEq:
		cmp(s.gr(a) == s.gr(b))
	case ir.OpCmpLt:
		cmp(s.gr(a) < s.gr(b))
	case ir.OpCmpEqI:
		cmp(s.gr(a) == in.Imm)
	case ir.OpCmpLtI:
		cmp(s.gr(a) < in.Imm)
	case ir.OpFMovI:
		fr(in.FImm)
	case ir.OpFMov:
		fr(s.fr(a))
	case ir.OpFAdd:
		fr(s.fr(a) + s.fr(b))
	case ir.OpFSub:
		fr(s.fr(a) - s.fr(b))
	case ir.OpFMul:
		fr(s.fr(a) * s.fr(b))
	case ir.OpFMA:
		fr(s.fr(a)*s.fr(b) + s.fr(in.Src[2]))
	case ir.OpFCmpLt:
		cmp(s.fr(a) < s.fr(b))
	case ir.OpGetF:
		gr(int64(s.fr(a)))
	case ir.OpSetF:
		fr(float64(s.gr(a)))
	case ir.OpSel:
		if s.pr(a) {
			gr(s.gr(b))
		} else {
			gr(s.gr(in.Src[2]))
		}
	case ir.OpFSel:
		if s.pr(a) {
			fr(s.fr(b))
		} else {
			fr(s.fr(in.Src[2]))
		}
	case ir.OpChk:
		// Data-speculation check: always succeeds in this model (the
		// workloads' speculated dependences never actually alias).
	case ir.OpLd, ir.OpLdF, ir.OpSt, ir.OpStF, ir.OpLfetch:
		addr = s.gr(in.Base)
		switch in.Op {
		case ir.OpLd:
			s.def(d, uint64(s.Mem.Load(addr, int(in.Size))), in.Site, 0)
		case ir.OpLdF:
			s.def(d, uint64(s.Mem.Load(addr, 8)), in.Site, 0)
		case ir.OpSt:
			s.Mem.Store(addr, int(in.Size), s.gr(a))
		case ir.OpStF:
			s.Mem.StoreF(addr, s.fr(a))
		}
		if in.Inc != 0 {
			site := int32(-1)
			if in.BaseIsDst {
				site = in.Site
			}
			s.def(in.Base, uint64(addr+in.Inc), site, 1)
		}
	default:
		return 0, fmt.Errorf("interp: cannot execute %v", in.Op)
	}
	return addr, nil
}

// issue executes one issue group with reads-before-writes semantics. An
// instruction that cannot execute aborts the group with no register
// writes applied.
func (s *State) issue(g []Inst) error {
	s.Pending = s.Pending[:0]
	for i := range g {
		_, on := s.Pred(&g[i])
		if _, err := s.Step(&g[i], on); err != nil {
			return err
		}
	}
	for i := range s.Pending {
		s.Retire(&s.Pending[i])
	}
	return nil
}

// Drive runs c's program on s for the given trip count: it applies the
// setup, arms LC (and EC and the stage predicate of a kernel), and runs
// the issue groups under the program's loop-closing branch, calling
// group for each one. It returns the kernel iterations executed (for a
// sequential program, the source iterations).
func (c *Code) Drive(s *State, trip int64, group func([]Inst) error) (iters int64, err error) {
	p := c.prog
	s.ApplySetup(p.Setup)
	s.LC = trip - 1
	s.DataRotation = !p.NoDataRotation
	if p.Pipelined {
		s.EC = int64(p.Stages)
		s.PR[RotPRLo] = true // stage-0 predicate on for the first iteration
	}
	// taken runs the loop-closing branch; it fires after every rot
	// groups. Data-terminated loops stop at a runaway cap.
	taken, rot, capped := s.Cloop, len(c.groups), !p.WhileQP.IsNone()
	switch {
	case p.Pipelined && capped:
		taken = func() bool { return s.Wtop(p.WhileQP) }
	case p.Pipelined:
		taken = s.Ctop
		if p.RotateEvery > 0 {
			rot = p.RotateEvery
		}
	case capped:
		taken = func() bool { return s.readPR(p.WhileQP) }
	}
	maxIters := trip + int64(p.Stages) + 4
	for {
		for i, g := range c.groups {
			if err := group(g); err != nil {
				return iters, err
			}
			if (i+1)%rot == 0 {
				iters++
				if !taken() || capped && iters >= maxIters {
					return iters, nil
				}
			}
		}
	}
}
