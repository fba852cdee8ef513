package ir

import (
	"fmt"
	"strings"
)

// RegInit gives a register its value on loop entry. Workload builders use
// it to wire loop-invariant operands and initial address bases; the HLO
// prefetcher appends inits for the lfetch address registers it creates.
type RegInit struct {
	Reg  Reg
	Val  int64   // value for GR and PR (non-zero = true) registers
	FVal float64 // value for FR registers
}

// MemDep is an explicit cross-instruction memory dependence the front end
// has proven (or must conservatively assume). Distance is the dependence
// distance in iterations (0 = same iteration).
type MemDep struct {
	From, To int // instruction IDs within the loop body
	Distance int
	// Latency is the minimum scheduling distance in cycles (usually 0 for
	// store->load ordering on Itanium where the memory system forwards,
	// 1 to force separate cycles).
	Latency int
	// MayAlias marks a dependence assumed only because the compiler could
	// not disambiguate the references. Data speculation (ld.a/chk.a,
	// core.DataSpeculate) may break such dependences to shorten
	// recurrence cycles (paper Sec. 3.3).
	MayAlias bool
}

// WhileInfo marks a data-terminated (while) loop. Cond is the loop's
// validity predicate: a virtual predicate register defined by a compare in
// the body and initialized to 1 (iteration 0 is assumed valid — the front
// end guards zero-trip executions). Every body instruction must be
// qualified by a use of Cond; instances for iterations past the exit are
// then predicated off by the propagating zero, and the pipelined kernel's
// br.wtop branches on the validity of the oldest in-flight iteration.
type WhileInfo struct {
	Cond Reg
}

// Loop is a single innermost loop in if-converted straight-line form —
// counted by default, data-terminated when While is set. The loop-closing
// branch (br.cloop/br.ctop for counted loops, the While condition/br.wtop
// for while loops) is implicit and not part of Body.
type Loop struct {
	// Name identifies the loop in diagnostics and experiment tables.
	Name string
	// Body is the straight-line loop body. Instruction IDs equal body
	// indices.
	Body []*Instr
	// Setup seeds register values on loop entry.
	Setup []RegInit
	// LiveOut lists registers whose final values are observable after the
	// loop; the pipeliner must preserve them and tests compare them.
	LiveOut []Reg
	// MemDeps are the proven cross-iteration or intra-iteration memory
	// ordering constraints. Memory references not related by an entry are
	// independent (the workload generators construct non-overlapping data).
	MemDeps []MemDep
	// While marks a data-terminated loop; nil means counted.
	While *WhileInfo

	nextVirt [4]int // next virtual id per class, for the builder
}

// Clone deep-copies the loop (body instructions, setup, deps).
func (l *Loop) Clone() *Loop {
	c := &Loop{
		Name:     l.Name,
		Body:     CloneInstrs(l.Body),
		Setup:    append([]RegInit(nil), l.Setup...),
		LiveOut:  append([]Reg(nil), l.LiveOut...),
		MemDeps:  append([]MemDep(nil), l.MemDeps...),
		nextVirt: l.nextVirt,
	}
	if l.While != nil {
		w := *l.While
		c.While = &w
	}
	return c
}

// NewLoop returns an empty loop with the given name.
func NewLoop(name string) *Loop {
	return &Loop{Name: name}
}

// NewGR allocates a fresh virtual general register.
func (l *Loop) NewGR() Reg {
	l.nextVirt[ClassGR]++
	return VGR(l.nextVirt[ClassGR] - 1)
}

// NewFR allocates a fresh virtual floating-point register.
func (l *Loop) NewFR() Reg {
	l.nextVirt[ClassFR]++
	return VFR(l.nextVirt[ClassFR] - 1)
}

// NewPR allocates a fresh virtual predicate register.
func (l *Loop) NewPR() Reg {
	l.nextVirt[ClassPR]++
	return VPR(l.nextVirt[ClassPR] - 1)
}

// Append adds an instruction to the body, assigning its ID, and returns it.
func (l *Loop) Append(in *Instr) *Instr {
	in.ID = len(l.Body)
	l.Body = append(l.Body, in)
	return in
}

// Init records an integer/predicate register initialization.
func (l *Loop) Init(r Reg, v int64) {
	l.Setup = append(l.Setup, RegInit{Reg: r, Val: v})
}

// InitF records a floating-point register initialization.
func (l *Loop) InitF(r Reg, v float64) {
	l.Setup = append(l.Setup, RegInit{Reg: r, FVal: v})
}

// InitValue returns the recorded initial integer value of r, if any.
func (l *Loop) InitValue(r Reg) (int64, bool) {
	for _, s := range l.Setup {
		if s.Reg == r {
			return s.Val, true
		}
	}
	return 0, false
}

// InitEntry returns the full setup entry for r, if any.
func (l *Loop) InitEntry(r Reg) (RegInit, bool) {
	for _, s := range l.Setup {
		if s.Reg == r {
			return s, true
		}
	}
	return RegInit{}, false
}

// Loads returns the body's load instructions in program order.
func (l *Loop) Loads() []*Instr {
	var out []*Instr
	for _, in := range l.Body {
		if in.Op.IsLoad() {
			out = append(out, in)
		}
	}
	return out
}

// MemRefs returns every memory-accessing instruction (loads, stores,
// lfetches) in program order.
func (l *Loop) MemRefs() []*Instr {
	var out []*Instr
	for _, in := range l.Body {
		if in.Op.IsMem() {
			out = append(out, in)
		}
	}
	return out
}

// String renders the loop as an annotated assembly listing.
func (l *Loop) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", l.Name)
	for _, in := range l.Body {
		fmt.Fprintf(&b, "  %s\n", in)
	}
	return b.String()
}

// --- convenience constructors used throughout workloads and tests ---

// Ld builds an integer load dst = [base] with the given access size and
// post-increment.
func Ld(dst, base Reg, size int, postInc int64) *Instr {
	return &Instr{Op: OpLd, Dsts: []Reg{dst}, Srcs: []Reg{base},
		Mem: &MemRef{Size: size, PostInc: postInc}}
}

// LdF builds an 8-byte floating-point load dst = [base].
func LdF(dst, base Reg, postInc int64) *Instr {
	return &Instr{Op: OpLdF, Dsts: []Reg{dst}, Srcs: []Reg{base},
		Mem: &MemRef{Size: 8, PostInc: postInc}}
}

// St builds an integer store [base] = val.
func St(base, val Reg, size int, postInc int64) *Instr {
	return &Instr{Op: OpSt, Srcs: []Reg{val, base},
		Mem: &MemRef{Size: size, PostInc: postInc}}
}

// StF builds an FP store [base] = val.
func StF(base, val Reg, postInc int64) *Instr {
	return &Instr{Op: OpStF, Srcs: []Reg{val, base},
		Mem: &MemRef{Size: 8, PostInc: postInc}}
}

// Lfetch builds a software prefetch of [base].
func Lfetch(base Reg, postInc int64, hint Hint) *Instr {
	return &Instr{Op: OpLfetch, Srcs: []Reg{base},
		Mem: &MemRef{Size: 1, PostInc: postInc, Hint: hint}}
}

// Add builds dst = a + b.
func Add(dst, a, b Reg) *Instr {
	return &Instr{Op: OpAdd, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// Sub builds dst = a - b.
func Sub(dst, a, b Reg) *Instr {
	return &Instr{Op: OpSub, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// AddI builds dst = a + imm.
func AddI(dst, a Reg, imm int64) *Instr {
	return &Instr{Op: OpAddI, Dsts: []Reg{dst}, Srcs: []Reg{a}, Imm: imm}
}

// MovI builds dst = imm.
func MovI(dst Reg, imm int64) *Instr {
	return &Instr{Op: OpMovI, Dsts: []Reg{dst}, Imm: imm}
}

// Mov builds dst = src.
func Mov(dst, src Reg) *Instr {
	return &Instr{Op: OpMov, Dsts: []Reg{dst}, Srcs: []Reg{src}}
}

// Shladd builds dst = (a << count) + b.
func Shladd(dst, a Reg, count int64, b Reg) *Instr {
	return &Instr{Op: OpShladd, Dsts: []Reg{dst}, Srcs: []Reg{a, b}, Imm: count}
}

// Mul builds dst = a * b (integer; FP-unit latency).
func Mul(dst, a, b Reg) *Instr {
	return &Instr{Op: OpMul, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// FMov builds dst = src (FP register move).
func FMov(dst, src Reg) *Instr {
	return &Instr{Op: OpFMov, Dsts: []Reg{dst}, Srcs: []Reg{src}}
}

// FMovI builds dst = imm (FP immediate move).
func FMovI(dst Reg, imm float64) *Instr {
	return &Instr{Op: OpFMovI, Dsts: []Reg{dst}, FImm: imm}
}

// FAdd builds dst = a + b (FP).
func FAdd(dst, a, b Reg) *Instr {
	return &Instr{Op: OpFAdd, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// FSub builds dst = a - b (FP).
func FSub(dst, a, b Reg) *Instr {
	return &Instr{Op: OpFSub, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// FMul builds dst = a * b (FP).
func FMul(dst, a, b Reg) *Instr {
	return &Instr{Op: OpFMul, Dsts: []Reg{dst}, Srcs: []Reg{a, b}}
}

// FMA builds dst = a*b + c.
func FMA(dst, a, b, c Reg) *Instr {
	return &Instr{Op: OpFMA, Dsts: []Reg{dst}, Srcs: []Reg{a, b, c}}
}

// CmpEqI builds pTrue, pFalse = (a == imm); either predicate may be None.
func CmpEqI(pTrue, pFalse, a Reg, imm int64) *Instr {
	return &Instr{Op: OpCmpEqI, Dsts: []Reg{pTrue, pFalse}, Srcs: []Reg{a}, Imm: imm}
}

// CmpLtI builds pTrue, pFalse = (a < imm); either predicate may be None.
func CmpLtI(pTrue, pFalse, a Reg, imm int64) *Instr {
	return &Instr{Op: OpCmpLtI, Dsts: []Reg{pTrue, pFalse}, Srcs: []Reg{a}, Imm: imm}
}

// CmpEq builds pTrue, pFalse = (a == b).
func CmpEq(pTrue, pFalse, a, b Reg) *Instr {
	return &Instr{Op: OpCmpEq, Dsts: []Reg{pTrue, pFalse}, Srcs: []Reg{a, b}}
}

// CmpLt builds pTrue, pFalse = (a < b).
func CmpLt(pTrue, pFalse, a, b Reg) *Instr {
	return &Instr{Op: OpCmpLt, Dsts: []Reg{pTrue, pFalse}, Srcs: []Reg{a, b}}
}

// Sel builds dst = sel ? a : b (integer predicated-move merge).
func Sel(dst, sel, a, b Reg) *Instr {
	return &Instr{Op: OpSel, Dsts: []Reg{dst}, Srcs: []Reg{sel, a, b}}
}

// FSel builds dst = sel ? a : b (FP).
func FSel(dst, sel, a, b Reg) *Instr {
	return &Instr{Op: OpFSel, Dsts: []Reg{dst}, Srcs: []Reg{sel, a, b}}
}

// Chk builds a data-speculation check of the advanced load's target.
func Chk(target Reg) *Instr {
	return &Instr{Op: OpChk, Srcs: []Reg{target}}
}

// Predicated returns the instruction with its qualifying predicate set.
func Predicated(p Reg, in *Instr) *Instr {
	in.Pred = p
	return in
}
