// Package verify is the trust-but-verify layer of the compiler: an
// independent checker that re-derives the structural invariants of a
// modulo schedule from first principles and a semantic differential
// oracle that executes the original loop against the emitted pipelined
// kernel on seeded inputs.
//
// The package deliberately shares no analysis code with the scheduler it
// checks: dependences, latencies, resource usage and register lifetimes
// are all recomputed here from the ir.Loop and the machine model alone
// (in particular it does not call modsched.Schedule.Validate or import
// internal/ddg). A bug in the scheduler's bookkeeping therefore cannot
// hide itself from the verifier — the translation-validation posture of
// production compilers.
package verify

import (
	"fmt"

	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
)

// Schedule re-derives every structural invariant of a modulo schedule and
// reports the first violation found. asn may be nil to check a bare
// schedule (no register allocation yet); when non-nil the rotating- and
// static-register invariants are checked as well.
//
// Invariants checked, all recomputed from scratch:
//
//   - shape: II >= 1, one schedule slot per body instruction, no negative
//     issue times, stage count equals floor(max(time)/II)+1;
//   - dependences: for every register flow dependence def->use (including
//     qualifying predicates and post-increment base updates), with
//     iteration distance 1 when the definition does not precede the use
//     in program order, time(use) >= time(def) + latency - II*distance,
//     where load results use the machine's *base* (best-case) latency —
//     the hardware-minimum separation any latency policy must respect;
//   - in-place registers (the definer reads its own previous value, so
//     the value is not renamed by rotation): every other reader must read
//     before the next write lands, time(reader) <= time(def) + II*distance;
//   - memory ordering: declared MemDeps respected at their distance;
//   - resources: per-kernel-row port occupancy within the machine's unit
//     counts and issue width, A-type ops only on I or M ports, all other
//     ops on their dispersal port, the implicit loop-closing branch
//     occupying a B slot in row II-1;
//   - registers (asn != nil): every virtual register allocated; rotating
//     blades wide enough for every use's stage delta and fully inside the
//     rotating regions; blades pairwise disjoint and, for predicates,
//     disjoint from the stage-predicate block; in-place registers static;
//     static registers inside the machine's static ranges.
func Schedule(m *machine.Model, l *ir.Loop, s *modsched.Schedule, asn *regalloc.Assignment) error {
	if s == nil {
		return fmt.Errorf("verify: nil schedule")
	}
	if s.II < 1 {
		return fmt.Errorf("verify: II=%d < 1", s.II)
	}
	n := len(l.Body)
	if n == 0 {
		return fmt.Errorf("verify: empty loop body")
	}
	if len(s.Time) != n || len(s.Port) != n {
		return fmt.Errorf("verify: schedule covers %d times/%d ports for %d instructions",
			len(s.Time), len(s.Port), n)
	}
	maxTime := 0
	for i, t := range s.Time {
		if t < 0 {
			return fmt.Errorf("verify: %v scheduled at negative time %d", l.Body[i], t)
		}
		if t > maxTime {
			maxTime = t
		}
	}
	if want := maxTime/s.II + 1; s.Stages != want {
		return fmt.Errorf("verify: stage count %d, recomputed %d (max time %d, II %d)",
			s.Stages, want, maxTime, s.II)
	}

	defOf, err := singleDefs(l)
	if err != nil {
		return err
	}
	if err := checkDependences(m, l, s, defOf); err != nil {
		return err
	}
	if err := checkInPlace(l, s, defOf); err != nil {
		return err
	}
	if err := checkMemDeps(l, s); err != nil {
		return err
	}
	if err := checkResources(m, l, s); err != nil {
		return err
	}
	if asn != nil {
		if err := checkRegisters(m, l, s, asn, defOf); err != nil {
			return err
		}
	}
	return nil
}

// singleDefs maps each register to its defining instruction, rejecting
// multiple definitions (rotation renaming requires single definitions; the
// scheduler relies on this too, but we re-derive it rather than trust it).
func singleDefs(l *ir.Loop) (map[ir.Reg]int, error) {
	defOf := make(map[ir.Reg]int)
	for i, in := range l.Body {
		for _, d := range in.AllDefs() {
			if d.IsNone() {
				continue
			}
			if prev, ok := defOf[d]; ok {
				return nil, fmt.Errorf("verify: %s defined by both instruction %d and %d", d, prev, i)
			}
			defOf[d] = i
		}
	}
	return defOf, nil
}

// resultLatency is the minimum hardware separation between def's issue and
// a consumer of register r. Loads use the machine's base (best-case)
// latency: any schedule must keep at least that distance regardless of the
// latency policy the scheduler chose. Post-increment address updates are
// available after one cycle.
func resultLatency(m *machine.Model, def *ir.Instr, r ir.Reg) int {
	if def.Op.IsLoad() && r == def.Dsts[0] {
		return m.LoadLatency(def, false)
	}
	if def.Op.IsMem() && r == def.BaseReg() {
		return 1
	}
	return m.Latency(def.Op)
}

// depDistance is the iteration distance of the flow dependence def->use:
// 0 when the definition strictly precedes the use in program order, 1
// otherwise (the use reads the previous iteration's value).
func depDistance(defID, useID int) int {
	if defID >= useID {
		return 1
	}
	return 0
}

func checkDependences(m *machine.Model, l *ir.Loop, s *modsched.Schedule, defOf map[ir.Reg]int) error {
	for useID, in := range l.Body {
		for _, u := range in.AllUses() {
			if u.IsNone() {
				continue
			}
			defID, ok := defOf[u]
			if !ok {
				continue // invariant or initialized-only value
			}
			def := l.Body[defID]
			dist := depDistance(defID, useID)
			lat := resultLatency(m, def, u)
			if s.Time[useID] < s.Time[defID]+lat-s.II*dist {
				return fmt.Errorf(
					"verify: dependence %s: def %v@%d -> use %v@%d violates latency %d distance %d at II=%d",
					u, def, s.Time[defID], in, s.Time[useID], lat, dist, s.II)
			}
		}
	}
	return nil
}

// inPlaceRegs re-derives the set of registers updated in place: their
// defining instruction reads them as a data source, so successive
// iterations reuse one physical register and rotation does not rename the
// value. A self-reference through the qualifying predicate alone (the
// while-loop validity chain) does not make a register in-place — that
// value rotates.
func inPlaceRegs(l *ir.Loop, defOf map[ir.Reg]int) map[ir.Reg]int {
	out := map[ir.Reg]int{}
	for r, d := range defOf {
		for _, u := range l.Body[d].Srcs {
			if u == r {
				out[r] = d
				break
			}
		}
	}
	return out
}

// checkInPlace enforces the anti-dependence side of in-place updates:
// because the register is not renamed, every reader must observe the value
// before the following write lands. Reads precede writes within an issue
// group, so equality is legal.
func checkInPlace(l *ir.Loop, s *modsched.Schedule, defOf map[ir.Reg]int) error {
	inPlace := inPlaceRegs(l, defOf)
	for r, d := range inPlace {
		for j, in := range l.Body {
			if j == d {
				continue
			}
			reads := false
			for _, u := range in.AllUses() {
				if u == r {
					reads = true
					break
				}
			}
			if !reads {
				continue
			}
			// Reader after the def reads this iteration's value and must
			// beat the next iteration's write; a reader before the def
			// reads the previous value and must beat this iteration's.
			dist := 0
			if j > d {
				dist = 1
			}
			if s.Time[j] > s.Time[d]+s.II*dist {
				return fmt.Errorf(
					"verify: in-place %s: reader %v@%d overlaps the next write by %v@%d (II=%d)",
					r, in, s.Time[j], l.Body[d], s.Time[d], s.II)
			}
		}
	}
	return nil
}

func checkMemDeps(l *ir.Loop, s *modsched.Schedule) error {
	for _, dep := range l.MemDeps {
		if dep.From < 0 || dep.From >= len(l.Body) || dep.To < 0 || dep.To >= len(l.Body) {
			return fmt.Errorf("verify: memory dependence %d->%d out of range", dep.From, dep.To)
		}
		if s.Time[dep.To] < s.Time[dep.From]+dep.Latency-s.II*dep.Distance {
			return fmt.Errorf(
				"verify: memory dependence %d@%d -> %d@%d violates latency %d distance %d at II=%d",
				dep.From, s.Time[dep.From], dep.To, s.Time[dep.To], dep.Latency, dep.Distance, s.II)
		}
	}
	return nil
}

func checkResources(m *machine.Model, l *ir.Loop, s *modsched.Schedule) error {
	type rowUse struct {
		perPort [machine.NumPorts]int
		total   int
	}
	rows := make([]rowUse, s.II)
	for i, in := range l.Body {
		want, aType := m.PortOf(in.Op)
		got := s.Port[i]
		if aType {
			if got != machine.PortI && got != machine.PortM {
				return fmt.Errorf("verify: A-type %v assigned port %d (want I or M)", in, got)
			}
		} else if got != want {
			return fmt.Errorf("verify: %v assigned port %d (dispersal requires %d)", in, got, want)
		}
		row := &rows[s.Time[i]%s.II]
		row.perPort[got]++
		row.total++
	}
	// The implicit loop-closing branch issues in the last kernel row.
	rows[s.II-1].perPort[machine.PortB]++
	rows[s.II-1].total++
	for r := range rows {
		row := &rows[r]
		if row.total > m.IssueWidth {
			return fmt.Errorf("verify: kernel row %d issues %d ops, width %d", r, row.total, m.IssueWidth)
		}
		for p := 0; p < int(machine.NumPorts); p++ {
			if row.perPort[p] > m.Units[p] {
				return fmt.Errorf("verify: kernel row %d uses %d units of port %d, machine has %d",
					r, row.perPort[p], p, m.Units[p])
			}
		}
	}
	return nil
}

// regionFor returns the rotating region bounds [lo, hi) for a class. For
// predicates the stage-predicate block [StagePredBase, +Stages) is carved
// out of the front of the region by the allocator; blades must sit above
// it, which the caller checks separately.
func regionFor(m *machine.Model, class ir.RegClass) (lo, hi int) {
	switch class {
	case ir.ClassGR:
		return 32, 32 + m.RotGR
	case ir.ClassFR:
		return 32, 32 + m.RotFR
	default:
		return 16, 16 + m.RotPR
	}
}

func staticRangeFor(m *machine.Model, class ir.RegClass) (lo, hi int) {
	switch class {
	case ir.ClassGR:
		return 1, 1 + m.StaticGR
	case ir.ClassFR:
		return 2, 2 + m.StaticFR
	default:
		return 1, 1 + m.StaticPR
	}
}

func checkRegisters(m *machine.Model, l *ir.Loop, s *modsched.Schedule, asn *regalloc.Assignment, defOf map[ir.Reg]int) error {
	inPlace := inPlaceRegs(l, defOf)
	phys := map[ir.Reg]regalloc.Alloc{}
	asn.Each(func(r ir.Reg, a regalloc.Alloc) { phys[r] = a })

	// Every virtual register touched by the body must have a home.
	for _, in := range l.Body {
		for _, r := range append(in.AllUses(), in.AllDefs()...) {
			if r.IsNone() || !r.Virtual {
				continue
			}
			if _, ok := phys[r]; !ok {
				return fmt.Errorf("verify: %s used by %v has no allocation", r, in)
			}
		}
	}

	type blade struct {
		r ir.Reg
		a regalloc.Alloc
	}
	blades := map[ir.RegClass][]blade{}
	for r, a := range phys {
		switch a.Kind {
		case regalloc.KindStatic:
			lo, hi := staticRangeFor(m, r.Class)
			if a.Base < lo || a.Base >= hi {
				return fmt.Errorf("verify: static %s at %s%d outside [%d,%d)", r, r.Class, a.Base, lo, hi)
			}
		case regalloc.KindRotating:
			if _, ip := inPlace[r]; ip {
				return fmt.Errorf("verify: in-place %s allocated rotating (rotation would rename it)", r)
			}
			lo, hi := regionFor(m, r.Class)
			if r.Class == ir.ClassPR {
				// Blades live above the stage-predicate block.
				if a.Base < asn.StagePredBase+s.Stages {
					return fmt.Errorf("verify: predicate blade %s at p%d collides with stage predicates [p%d,p%d)",
						r, a.Base, asn.StagePredBase, asn.StagePredBase+s.Stages)
				}
			}
			if a.Width < 1 || a.Base < lo || a.Base+a.Width > hi {
				return fmt.Errorf("verify: blade %s [%d,%d) outside rotating region [%d,%d)",
					r, a.Base, a.Base+a.Width, lo, hi)
			}
			blades[r.Class] = append(blades[r.Class], blade{r, a})
		default:
			return fmt.Errorf("verify: %s has unknown allocation kind %d", r, a.Kind)
		}
	}

	// Blades of one class must not overlap: two live values sharing a
	// physical register would corrupt each other.
	for class, bs := range blades {
		for i := 0; i < len(bs); i++ {
			for j := i + 1; j < len(bs); j++ {
				a, b := bs[i], bs[j]
				if a.a.Base < b.a.Base+b.a.Width && b.a.Base < a.a.Base+a.a.Width {
					return fmt.Errorf("verify: %s blades %s [%d,%d) and %s [%d,%d) overlap",
						class, a.r, a.a.Base, a.a.Base+a.a.Width, b.r, b.a.Base, b.a.Base+b.a.Width)
				}
			}
		}
	}

	// Every use must land inside its value's blade: the stage distance
	// between def and use (plus one for loop-carried reads) is how far the
	// value has rotated away from its definition slot.
	for useID, in := range l.Body {
		for _, u := range in.AllUses() {
			if u.IsNone() || !u.Virtual {
				continue
			}
			a := phys[u]
			if a.Kind != regalloc.KindRotating {
				continue
			}
			defID, ok := defOf[u]
			if !ok {
				continue
			}
			delta := s.Stage(useID) + depDistance(defID, useID) - s.Stage(defID)
			if delta < 0 || delta >= a.Width {
				return fmt.Errorf(
					"verify: %s read by %v at stage delta %d outside its blade width %d",
					u, in, delta, a.Width)
			}
		}
	}
	return nil
}
