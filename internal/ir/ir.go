// Package ir defines the loop intermediate representation used by the
// latency-tolerant software pipeliner and its substrates.
//
// The IR is deliberately Itanium-flavoured: instructions are predicated,
// loads and stores support post-increment addressing, and pipelined loops
// are controlled by br.cloop / br.ctop counted-loop branches. Unlike most
// compiler IRs, every opcode carries executable semantics (implemented in
// package interp), which lets the test suite prove that a pipelined kernel
// computes exactly the same result as its source loop.
package ir

import "fmt"

// RegClass identifies the register file a Reg belongs to.
type RegClass uint8

const (
	// ClassNone is the zero RegClass; a Reg with ClassNone is "no register"
	// (for example, an always-true qualifying predicate).
	ClassNone RegClass = iota
	// ClassGR is the 64-bit general (integer) register file, r0-r127.
	ClassGR
	// ClassFR is the floating-point register file, f0-f127.
	ClassFR
	// ClassPR is the 1-bit predicate register file, p0-p63.
	ClassPR
)

// String returns the conventional one-letter register file prefix.
func (c RegClass) String() string {
	switch c {
	case ClassGR:
		return "r"
	case ClassFR:
		return "f"
	case ClassPR:
		return "p"
	default:
		return "?"
	}
}

// Reg names a register operand. Before register allocation operands are
// virtual (Virtual == true, N is an arbitrary dense id per class); after
// allocation they are physical registers in the Itanium numbering, where
// r32/f32/p16 start the rotating regions.
type Reg struct {
	Class   RegClass
	N       int
	Virtual bool
}

// None is the absent register (e.g. an unqualified predicate slot).
var None = Reg{}

// IsNone reports whether r is the absent register.
func (r Reg) IsNone() bool { return r.Class == ClassNone }

// GR returns the physical general register rN.
func GR(n int) Reg { return Reg{Class: ClassGR, N: n} }

// FR returns the physical floating-point register fN.
func FR(n int) Reg { return Reg{Class: ClassFR, N: n} }

// PR returns the physical predicate register pN.
func PR(n int) Reg { return Reg{Class: ClassPR, N: n} }

// VGR returns the virtual general register with id n.
func VGR(n int) Reg { return Reg{Class: ClassGR, N: n, Virtual: true} }

// VFR returns the virtual floating-point register with id n.
func VFR(n int) Reg { return Reg{Class: ClassFR, N: n, Virtual: true} }

// VPR returns the virtual predicate register with id n.
func VPR(n int) Reg { return Reg{Class: ClassPR, N: n, Virtual: true} }

// String renders the register in assembly syntax; virtual registers are
// prefixed with "v" (e.g. vr7) to distinguish them from physical ones.
func (r Reg) String() string {
	if r.IsNone() {
		return "-"
	}
	if r.Virtual {
		return fmt.Sprintf("v%s%d", r.Class, r.N)
	}
	return fmt.Sprintf("%s%d", r.Class, r.N)
}

// Op enumerates the instruction opcodes. The set is the subset of the
// Itanium ISA that the paper's loops need: integer and FP arithmetic,
// predicated compares, memory operations with post-increment, software
// prefetch (lfetch), and the counted-loop branches.
type Op uint8

const (
	// OpNop issues but has no effect. Used for padding in tests.
	OpNop Op = iota

	// OpMovI: dst = Imm (integer immediate move).
	OpMovI
	// OpMov: dst = src0 (integer register move).
	OpMov
	// OpAdd: dst = src0 + src1.
	OpAdd
	// OpSub: dst = src0 - src1.
	OpSub
	// OpAddI: dst = src0 + Imm.
	OpAddI
	// OpAnd: dst = src0 & src1.
	OpAnd
	// OpOr: dst = src0 | src1.
	OpOr
	// OpXor: dst = src0 ^ src1.
	OpXor
	// OpShlI: dst = src0 << Imm.
	OpShlI
	// OpShrI: dst = src0 >> Imm (arithmetic).
	OpShrI
	// OpShladd: dst = (src0 << Imm) + src1 (Itanium shladd; Imm in 1..4).
	OpShladd
	// OpMul: dst = src0 * src1. Integer multiply executes on the FP unit
	// on Itanium (xma) and has FP-unit latency.
	OpMul

	// OpCmpEq: dstP0 = (src0 == src1), dstP1 = !(src0 == src1).
	// Either destination predicate may be None.
	OpCmpEq
	// OpCmpLt: dstP0 = (src0 < src1), dstP1 = complement (signed).
	OpCmpLt
	// OpCmpEqI: dstP0 = (src0 == Imm), dstP1 = complement.
	OpCmpEqI
	// OpCmpLtI: dstP0 = (src0 < Imm), dstP1 = complement.
	OpCmpLtI

	// OpFMovI: dst = FImm (FP immediate move; setf-style).
	OpFMovI
	// OpFMov: dst = src0 (FP register move).
	OpFMov
	// OpFAdd: dst = src0 + src1 (FP).
	OpFAdd
	// OpFSub: dst = src0 - src1 (FP).
	OpFSub
	// OpFMul: dst = src0 * src1 (FP).
	OpFMul
	// OpFMA: dst = src0*src1 + src2 (fused multiply-add).
	OpFMA
	// OpFCmpLt: dstP0 = (src0 < src1), dstP1 = complement (FP).
	OpFCmpLt
	// OpGetF: dst(GR) = raw move from FR source (getf.sig-style; here it
	// truncates the float to int64).
	OpGetF
	// OpSetF: dst(FR) = float64(src0) (setf/fcvt-style int-to-FP).
	OpSetF
	// OpSel: dst = src0(PR) ? src1 : src2 — the single-definition merge
	// the if-converter emits for values produced on both arms of a
	// diamond (a predicated-move pair in real Itanium code). Keeping the
	// merge a single definition is what lets rotating register renaming
	// work on if-converted bodies.
	OpSel
	// OpFSel is OpSel for floating-point values.
	OpFSel
	// OpChk validates an earlier data-speculative (advanced) load; it has
	// no architectural effect in this model (recovery is not simulated)
	// but occupies an issue slot like chk.a does.
	OpChk

	// OpLd: integer load, dst = *(base) with Mem describing size and
	// post-increment of the base register.
	OpLd
	// OpLdF: floating-point load (8-byte), dst(FR) = *(base). FP loads
	// bypass the L1D cache on Itanium 2.
	OpLdF
	// OpSt: integer store *(base) = src0, with post-increment.
	OpSt
	// OpStF: FP store *(base) = src0(FR), with post-increment.
	OpStF
	// OpLfetch: software prefetch of the line at *(base); no destination.
	// Mem.Hint selects the target cache level.
	OpLfetch

	// OpBrCloop terminates a source (non-pipelined) counted loop:
	// if LC != 0 { LC--; branch back }.
	OpBrCloop
	// OpBrCtop terminates a pipelined kernel loop: rotates the register
	// files, injects the new stage predicate into p16, and branches while
	// LC != 0 or EC > 1 (see interp for exact semantics).
	OpBrCtop

	opMax // sentinel for table sizing
)

var opNames = [...]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpAddI: "addi", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShlI: "shl",
	OpShrI: "shr", OpShladd: "shladd", OpMul: "xma",
	OpCmpEq: "cmp.eq", OpCmpLt: "cmp.lt", OpCmpEqI: "cmp.eq.i", OpCmpLtI: "cmp.lt.i",
	OpFMovI: "fmovi", OpFMov: "fmov", OpFAdd: "fadd", OpFSub: "fsub",
	OpFMul: "fmul", OpFMA: "fma", OpFCmpLt: "fcmp.lt",
	OpGetF: "getf", OpSetF: "setf",
	OpSel: "sel", OpFSel: "fsel", OpChk: "chk.a",
	OpLd: "ld", OpLdF: "ldf", OpSt: "st", OpStF: "stf", OpLfetch: "lfetch",
	OpBrCloop: "br.cloop", OpBrCtop: "br.ctop",
}

// String returns the assembly mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsLoad reports whether the opcode reads memory into a register.
func (o Op) IsLoad() bool { return o == OpLd || o == OpLdF }

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return o == OpSt || o == OpStF }

// IsMem reports whether the opcode accesses memory (including lfetch).
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() || o == OpLfetch }

// IsBranch reports whether the opcode is a loop-closing branch.
func (o Op) IsBranch() bool { return o == OpBrCloop || o == OpBrCtop }

// IsFP reports whether the opcode executes on the floating-point unit.
// Integer multiply is FP-unit work on Itanium.
func (o Op) IsFP() bool {
	switch o {
	case OpFMovI, OpFMov, OpFAdd, OpFSub, OpFMul, OpFMA, OpFCmpLt, OpMul, OpSetF, OpGetF, OpFSel:
		return true
	}
	return false
}

// Hint is the latency-hint token the High-Level Optimizer attaches to a
// memory reference (paper Sec. 3.2). The back-end machine model translates
// it into a typical (not best-case) latency for that cache level.
type Hint uint8

const (
	// HintNone: schedule the load at its base (best-case) latency.
	HintNone Hint = iota
	// HintL2: the load is expected to hit no higher than L2.
	HintL2
	// HintL3: the load is expected to hit no higher than L3 (or memory).
	HintL3
)

// String names the hint for diagnostics.
func (h Hint) String() string {
	switch h {
	case HintL2:
		return "L2"
	case HintL3:
		return "L3"
	default:
		return "none"
	}
}

// StrideKind classifies the access pattern of a memory reference as seen by
// the High-Level Optimizer's symbolic analysis.
type StrideKind uint8

const (
	// StrideUnknown: no static information about the address stream.
	StrideUnknown StrideKind = iota
	// StrideUnit: consecutive elements, stride equal to element size.
	StrideUnit
	// StrideConst: constant stride known at compile time.
	StrideConst
	// StrideSymbolic: constant per execution but unknown at compile time
	// (paper heuristic 2a: prefetch distance is limited to bound TLB
	// pressure, so the reference is marked for longer-latency scheduling).
	StrideSymbolic
	// StrideIndirect: a[b[i]]-style access (paper heuristic 2b).
	StrideIndirect
	// StridePointerChase: address depends on a loaded pointer from a
	// previous iteration (paper heuristic 1: not prefetchable at all).
	StridePointerChase
	// StrideInvariant: the address does not vary across iterations.
	StrideInvariant
)

// String names the stride class.
func (s StrideKind) String() string {
	switch s {
	case StrideUnit:
		return "unit"
	case StrideConst:
		return "const"
	case StrideSymbolic:
		return "symbolic"
	case StrideIndirect:
		return "indirect"
	case StridePointerChase:
		return "ptr-chase"
	case StrideInvariant:
		return "invariant"
	default:
		return "unknown"
	}
}

// MemRef carries the memory-access metadata of a load, store or lfetch:
// operand size, addressing, and the analysis facts the HLO prefetcher and
// the pipeliner consume.
type MemRef struct {
	// Size is the access width in bytes (1, 2, 4 or 8).
	Size int
	// PostInc is added to the base register after the access (Itanium
	// post-increment addressing); zero means no update.
	PostInc int64

	// Stride is the HLO's classification of the address stream.
	Stride StrideKind
	// StrideBytes is the per-iteration address delta when Stride is
	// StrideUnit or StrideConst (equal to PostInc when post-incremented).
	StrideBytes int64

	// Hint is the latency-hint token set by the HLO prefetcher.
	Hint Hint
	// Delinquent marks loads the HLO expects to have consistently long
	// latencies because they cannot be prefetched at all (heuristic 1).
	// The pipeliner boosts such loads even in loops below the trip-count
	// threshold — long expected latency can make the optimization
	// profitable at low trip counts (paper Sec. 3.1 and the Sec. 4.4
	// example).
	Delinquent bool
	// Prefetched records that the HLO emitted an lfetch covering this
	// reference.
	Prefetched bool
	// PrefetchDistance is the distance (in source iterations) of that
	// lfetch, when Prefetched.
	PrefetchDistance int
	// Group identifies the cache-line equivalence class of the reference
	// within its loop; references in one group share prefetches, and only
	// the leading reference is prefetched (paper Sec. 3.2). Zero means
	// "its own group".
	Group int
	// LineLeader marks the leading reference of its Group.
	LineLeader bool

	// Indirect-reference metadata (StrideIndirect, the a[b[i]] pattern of
	// paper heuristic 2b). The prefetcher uses it to emit the speculative
	// index load + address computation + lfetch sequence for the indirect
	// stream.
	//
	// IndexInit is the initial address of the index stream b, IndexStride
	// its per-iteration advance, IndexSize the index element size in
	// bytes, ScaleShift log2 of a's element size, and ArrayBase the
	// loop-invariant register holding &a[0].
	IndexInit   int64
	IndexStride int64
	IndexSize   int
	ScaleShift  int64
	ArrayBase   Reg
}

// Clone returns a deep copy of the MemRef.
func (m *MemRef) Clone() *MemRef {
	if m == nil {
		return nil
	}
	c := *m
	return &c
}

// Instr is one IR instruction. Dsts/Srcs hold register operands; compares
// may define up to two predicate destinations. Pred is the qualifying
// predicate (None = always execute). Instructions are identified within a
// loop body by their index (ID), assigned by the Loop builder.
type Instr struct {
	// ID is the instruction's dense index within its loop body.
	ID int
	// Op is the opcode.
	Op Op
	// Pred is the qualifying predicate register, or None.
	Pred Reg
	// Dsts are the destination registers (0, 1 or 2 for compares).
	Dsts []Reg
	// Srcs are the source registers.
	Srcs []Reg
	// Imm is the integer immediate for immediate-form opcodes.
	Imm int64
	// FImm is the FP immediate for OpFMovI.
	FImm float64
	// Mem is the memory-reference descriptor for memory opcodes.
	Mem *MemRef
	// Comment is carried through to the printer for annotated listings.
	Comment string
}

// Clone returns a deep copy of the instruction (operand slices and MemRef
// are copied, so mutations of the clone do not alias the original).
func (in *Instr) Clone() *Instr { return CloneInstrs([]*Instr{in})[0] }

// CloneInstrs deep-copies the instructions like Clone, drawing the
// copies, their operands and their memory descriptors from one array
// each. Operand slices are capped at their length, so appending to one
// never writes into another's.
func CloneInstrs(body []*Instr) []*Instr {
	nregs, nmem := 0, 0
	for _, in := range body {
		nregs += len(in.Dsts) + len(in.Srcs)
		if in.Mem != nil {
			nmem++
		}
	}
	out := make([]*Instr, len(body))
	instrs := make([]Instr, len(body))
	regs := make([]Reg, nregs)
	mems := make([]MemRef, nmem)
	take := func(rs []Reg) []Reg {
		if len(rs) == 0 {
			return nil
		}
		n := copy(regs, rs)
		c := regs[:n:n]
		regs = regs[n:]
		return c
	}
	for i, in := range body {
		c := &instrs[i]
		*c = *in
		c.Dsts, c.Srcs = take(in.Dsts), take(in.Srcs)
		if in.Mem != nil {
			mems[0] = *in.Mem
			c.Mem, mems = &mems[0], mems[1:]
		}
		out[i] = c
	}
	return out
}

// AllUses returns every register the instruction reads: sources, the
// qualifying predicate, and the base register of a memory access (which is
// also written back when post-incremented).
func (in *Instr) AllUses() []Reg {
	uses := make([]Reg, 0, len(in.Srcs)+1)
	uses = append(uses, in.Srcs...)
	if !in.Pred.IsNone() {
		uses = append(uses, in.Pred)
	}
	return uses
}

// AllDefs returns every register the instruction writes, including the
// post-incremented base register of a memory access.
func (in *Instr) AllDefs() []Reg {
	defs := append([]Reg(nil), in.Dsts...)
	if in.Mem != nil && in.Mem.PostInc != 0 && len(in.Srcs) > 0 {
		defs = append(defs, in.baseReg())
	}
	return defs
}

// baseReg returns the address base register of a memory instruction.
// By convention the base is the last source of loads/lfetch and the second
// source of stores (src0 is the stored value).
func (in *Instr) baseReg() Reg {
	if !in.Op.IsMem() || len(in.Srcs) == 0 {
		return None
	}
	return in.Srcs[len(in.Srcs)-1]
}

// BaseReg returns the address base register of a memory instruction, or
// None for non-memory instructions.
func (in *Instr) BaseReg() Reg { return in.baseReg() }

// String renders the instruction in a compact assembly-like syntax.
func (in *Instr) String() string {
	s := ""
	if !in.Pred.IsNone() {
		s += "(" + in.Pred.String() + ") "
	}
	s += in.Op.String()
	switch {
	case in.Op.IsLoad():
		s += fmt.Sprintf("%d %s = [%s]", in.Mem.Size, in.Dsts[0], in.baseReg())
		if in.Mem.PostInc != 0 {
			s += fmt.Sprintf(",%d", in.Mem.PostInc)
		}
	case in.Op.IsStore():
		s += fmt.Sprintf("%d [%s] = %s", in.Mem.Size, in.baseReg(), in.Srcs[0])
		if in.Mem.PostInc != 0 {
			s += fmt.Sprintf(",%d", in.Mem.PostInc)
		}
	case in.Op == OpLfetch:
		s += fmt.Sprintf(" [%s]", in.baseReg())
		if in.Mem.PostInc != 0 {
			s += fmt.Sprintf(",%d", in.Mem.PostInc)
		}
	case in.Op.IsBranch():
		// no operands
	default:
		first := true
		for _, d := range in.Dsts {
			if !first {
				s += ","
			} else {
				s += " "
			}
			s += d.String()
			first = false
		}
		if len(in.Dsts) > 0 {
			s += " ="
		}
		for i, src := range in.Srcs {
			if i > 0 {
				s += ","
			}
			s += " " + src.String()
		}
		switch in.Op {
		case OpMovI, OpAddI, OpShlI, OpShrI, OpShladd, OpCmpEqI, OpCmpLtI:
			s += fmt.Sprintf(", %d", in.Imm)
		case OpFMovI:
			s += fmt.Sprintf(", %g", in.FImm)
		}
	}
	if in.Comment != "" {
		s += "  // " + in.Comment
	}
	return s
}
