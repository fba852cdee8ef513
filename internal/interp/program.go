package interp

import (
	"fmt"
	"strings"

	"ltsp/internal/ir"
)

// Program is an executable loop after code generation: instructions use
// physical registers, arranged into issue groups (one group per cycle of
// the schedule). Five code shapes share this container:
//
//   - sequential counted: list-scheduled body closed by br.cloop
//     (LC = trip-1);
//   - sequential while: the same, repeating while WhileQP holds;
//   - rotating kernel: len(Groups) == II, closed by br.ctop with
//     LC = trip-1 and EC = Stages;
//   - MVE-unrolled kernel: len(Groups) == U*II with RotateEvery = II and
//     NoDataRotation (plain registers, predicate-only rotation);
//   - br.wtop while kernel: WhileQP set, EC counting the fill.
type Program struct {
	Name      string
	Pipelined bool
	Groups    [][]*ir.Instr
	// Stages is the number of software pipeline stages (pipelined only).
	Stages int
	// RotateEvery is the cycle period of br.ctop execution for pipelined
	// programs whose kernel holds several unrolled copies (modulo variable
	// expansion): the branch fires every RotateEvery cycles instead of
	// once per Groups pass. Zero means once per pass (rotating kernels).
	RotateEvery int
	// NoDataRotation marks kernels that use the r32+/f32+ regions as
	// plain registers (modulo variable expansion): br.ctop then rotates
	// only the predicate file (CFM with a zero-sized rotating data
	// region).
	NoDataRotation bool
	// WhileQP, when set, marks a data-terminated (while) loop: instead of
	// LC/EC counting, a sequential program repeats while this predicate
	// register holds, and a pipelined kernel closes with br.wtop on it
	// (the validity of the oldest in-flight iteration). The trip count
	// passed to Run/sim serves only as a runaway cap.
	WhileQP ir.Reg
	// Setup is applied to the architectural state before the loop starts
	// (before any rotation).
	Setup []ir.RegInit
	// LiveOut lists the physical registers whose final values are the
	// loop's observable results.
	LiveOut []ir.Reg
}

// Instrs returns all instructions of the program in group order.
func (p *Program) Instrs() []*ir.Instr {
	var out []*ir.Instr
	for _, g := range p.Groups {
		out = append(out, g...)
	}
	return out
}

// Listing renders the program as an annotated assembly listing in the
// style of the paper's Fig. 3/6: one block per cycle, the implicit
// loop-closing branch last.
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", p.Name)
	if p.Pipelined {
		fmt.Fprintf(&b, "  // pipelined kernel, II=%d, %d stages", len(p.Groups), p.Stages)
	} else {
		fmt.Fprintf(&b, "  // sequential schedule, %d cycles/iteration", len(p.Groups))
	}
	b.WriteByte('\n')
	for c, g := range p.Groups {
		for _, in := range g {
			fmt.Fprintf(&b, "  %-50s // cycle %d\n", in.String(), c)
		}
	}
	switch {
	case p.Pipelined && !p.WhileQP.IsNone():
		fmt.Fprintf(&b, "  %-50s // cycle %d\n", "("+p.WhileQP.String()+") br.wtop", len(p.Groups)-1)
	case p.Pipelined:
		fmt.Fprintf(&b, "  %-50s // cycle %d\n", "br.ctop", len(p.Groups)-1)
	case !p.WhileQP.IsNone():
		fmt.Fprintf(&b, "  %-50s // cycle %d\n", "("+p.WhileQP.String()+") br.cond", len(p.Groups)-1)
	default:
		fmt.Fprintf(&b, "  %-50s // cycle %d\n", "br.cloop", len(p.Groups)-1)
	}
	return b.String()
}

// KernelIterations returns how many kernel iterations a pipelined program
// executes for the given trip count: trip + Stages - 1 (the paper's "one
// extra kernel iteration per extra stage").
func (p *Program) KernelIterations(trip int64) int64 {
	if !p.Pipelined {
		return trip
	}
	return trip + int64(p.Stages) - 1
}

// Run executes the program functionally (no timing) for the given trip
// count against the provided memory, returning the final state. trip must
// be at least 1: Itanium counted loops test at the bottom and always run
// the body once.
func Run(p *Program, trip int64, mem *Memory) (*State, error) {
	if trip < 1 {
		return nil, fmt.Errorf("interp: trip count %d < 1", trip)
	}
	var c Code
	if err := c.Decode(p, nil); err != nil {
		return nil, err
	}
	s := NewStateOn(mem)
	if _, err := c.Drive(s, trip, s.issue); err != nil {
		return nil, err
	}
	return s, nil
}
