package ir

import (
	"fmt"
	"math"
)

// InvalidLoopError marks a decoded wire loop that is syntactically valid
// JSON but semantically unusable: it violates an IR invariant the
// compiler relies on (single definitions, finite constants, registers
// inside the machine's files, well-formed memory dependences). The
// service maps it to the structured invalid_loop error code so
// adversarial or buggy clients get a 400 instead of a panic deep inside
// scheduling or interpretation.
type InvalidLoopError struct {
	Err error
}

func (e *InvalidLoopError) Error() string { return "ir: invalid loop: " + e.Err.Error() }

// Unwrap exposes the underlying validation failure.
func (e *InvalidLoopError) Unwrap() error { return e.Err }

// Limits on decoded loops. They are far above anything a real workload
// produces and exist only to bound the damage adversarial wire input can
// do before compilation starts.
const (
	// MaxWireBody bounds the number of body instructions. The JSON and
	// binary decoders both enforce it through CheckBodyLen.
	MaxWireBody = 4096
	// maxVirtReg bounds virtual register ids (dense counters are rebuilt
	// from the maximum, so a single absurd id would allocate nothing but
	// would poison every later NewGR call).
	maxVirtReg = 1 << 20
)

// CheckBodyLen rejects a body of n instructions above MaxWireBody. A
// decoder that reads the count before the instructions calls it first,
// so an oversized frame is refused before its body is allocated.
func CheckBodyLen(n int) error {
	if n > MaxWireBody {
		return fmt.Errorf("body has %d instructions (limit %d)", n, MaxWireBody)
	}
	return nil
}

// physRegLimit is the size of the physical file for a class, mirroring
// the interpreter's register arrays (128 GR, 128 FR, 64 PR).
func physRegLimit(c RegClass) int {
	if c == ClassPR {
		return 64
	}
	return 128
}

// ValidateSemantics applies the semantic checks that turn adversarial
// wire input into a structured error instead of a panic deep in the
// compiler: the loop's own structural Verify (operand shapes, while-loop
// rules, in-range non-negative memory dependences), single definitions
// for virtual registers, finite floating-point constants, and register
// ids inside the physical files / a sane virtual range. DecodeLoop runs
// it on every decoded loop and wraps failures in *InvalidLoopError.
func ValidateSemantics(l *Loop) error {
	if err := CheckBodyLen(len(l.Body)); err != nil {
		return err
	}
	if err := l.Verify(); err != nil {
		return err
	}

	checkReg := func(where string, r Reg) error {
		if r.IsNone() {
			return nil
		}
		if r.N < 0 {
			return fmt.Errorf("%s: negative register id %d", where, r.N)
		}
		if r.Virtual {
			if r.N > maxVirtReg {
				return fmt.Errorf("%s: virtual register id %d exceeds limit %d", where, r.N, maxVirtReg)
			}
			return nil
		}
		if lim := physRegLimit(r.Class); r.N >= lim {
			return fmt.Errorf("%s: physical %s outside the %d-entry %s file", where, r, lim, r.Class)
		}
		return nil
	}

	defs := map[Reg]int{}
	for i, in := range l.Body {
		where := fmt.Sprintf("body[%d]", i)
		if math.IsNaN(in.FImm) || math.IsInf(in.FImm, 0) {
			return fmt.Errorf("%s: non-finite immediate %v", where, in.FImm)
		}
		if err := checkReg(where, in.Pred); err != nil {
			return err
		}
		for _, r := range in.Dsts {
			if err := checkReg(where, r); err != nil {
				return err
			}
		}
		for _, r := range in.Srcs {
			if err := checkReg(where, r); err != nil {
				return err
			}
		}
		for _, d := range in.AllDefs() {
			if d.IsNone() || !d.Virtual {
				continue
			}
			if prev, dup := defs[d]; dup {
				return fmt.Errorf("%s defined by both body[%d] and body[%d] (virtual registers must have a single definition)", d, prev, i)
			}
			defs[d] = i
		}
	}
	for i, s := range l.Setup {
		if math.IsNaN(s.FVal) || math.IsInf(s.FVal, 0) {
			return fmt.Errorf("setup[%d]: non-finite value %v", i, s.FVal)
		}
		if err := checkReg(fmt.Sprintf("setup[%d]", i), s.Reg); err != nil {
			return err
		}
	}
	for i, r := range l.LiveOut {
		if err := checkReg(fmt.Sprintf("liveOut[%d]", i), r); err != nil {
			return err
		}
	}
	return nil
}
