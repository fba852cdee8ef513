package core

import (
	"fmt"

	"ltsp/internal/ddg"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
)

// genKernelUnrolled produces a pipelined kernel for a machine *without*
// register rotation, using modulo variable expansion: the kernel holds U
// unrolled copies of the schedule, where U is the longest value lifetime
// in kernel iterations, and every cross-iteration value gets U plain
// registers cycled by copy index. Stage predicates still rotate (the
// predicate file's rotation is cheap and orthogonal); compare-produced
// predicates are expanded into the static predicate area.
//
// This is the paper's related-work observation made executable: "rotating
// registers easily enable clustering of load instances from successive
// iterations ... Without rotating registers, this effect could only be
// achieved with unrolling" — at the cost of U-fold code size and a much
// larger plain-register footprint (see the stats it returns).
func genKernelUnrolled(m *machine.Model, g *ddg.Graph, s *modsched.Schedule) (*interp.Program, int, regalloc.Stats, error) {
	l := g.Loop
	var stats regalloc.Stats
	nums := g.Numbering()
	nr := nums.Len()
	inPlace, defID := g.InPlaceRegs(), g.DefSites()

	// Classify virtual registers exactly like the rotating allocator.
	// mve[k] is the first plain register of rotating candidate k's U-set
	// and static[k] the static register of an in-place value or
	// invariant, -1 for none.
	tables := make([]int, 2*nr)
	mve, static := tables[:nr], tables[nr:]
	for k := range tables {
		tables[k] = -1
	}

	var order []int
	for i := range l.Body {
		for _, d := range nums.Defs(i) {
			if d >= 0 && nums.Regs[d].Virtual {
				order = append(order, int(d))
			}
		}
	}
	var invariants []int
	seen := make([]bool, nr)
	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u >= 0 && nums.Regs[u].Virtual && !seen[u] {
				seen[u] = true
				if defID[u] < 0 {
					invariants = append(invariants, int(u))
				}
			}
		}
	}

	// Cross-stage in-place reads are as illegal here as under rotation.
	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u < 0 {
				continue
			}
			if d := inPlace[u]; d >= 0 && d != i && s.Stage(d) != s.Stage(i) {
				return nil, 0, stats, fmt.Errorf("core: %s: body[%d] reads in-place register %s across stages",
					l.Name, i, nums.Regs[u])
			}
		}
	}

	// The unroll factor is the longest lifetime in kernel iterations;
	// carried marks the values read before their definition in program
	// order (loop-carried).
	carried := make([]bool, nr)
	unroll := 1
	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u < 0 || defID[u] < 0 || !nums.Regs[u].Virtual || inPlace[u] >= 0 {
				continue
			}
			d := defID[u]
			delta := regalloc.Delta(s, d, i)
			if delta < 0 {
				return nil, 0, stats, fmt.Errorf("core: %s: negative delta for %s", l.Name, nums.Regs[u])
			}
			unroll = max(unroll, delta+1)
			if d >= i {
				carried[u] = true
			}
		}
	}

	// Register assignment over the *whole* plain files (no rotation means
	// the r32+/f32+ regions are ordinary registers).
	next := [...]int{ir.ClassGR: 1, ir.ClassFR: 2, ir.ClassPR: 1}
	limit := [...]int{
		ir.ClassGR: interp.NumGR,
		ir.ClassFR: interp.NumFR,
		ir.ClassPR: interp.RotPRLo, // p1-p15: p16+ hold the rotating stage predicates
	}
	take := func(class ir.RegClass, n int) (int, error) {
		base := next[class]
		if base+n > limit[class] {
			return 0, &regalloc.OverflowError{Class: class, Need: base + n - limit[class], Capacity: limit[class]}
		}
		next[class] = base + n
		switch class {
		case ir.ClassGR:
			stats.StaticGR += n
		case ir.ClassFR:
			stats.StaticFR += n
		case ir.ClassPR:
			stats.StaticPR += n
		}
		return base, nil
	}

	for _, k := range order {
		c := nums.Regs[k].Class
		if inPlace[k] >= 0 {
			base, err := take(c, 1)
			if err != nil {
				return nil, 0, stats, err
			}
			static[k] = base
			continue
		}
		base, err := take(c, unroll)
		if err != nil {
			return nil, 0, stats, err
		}
		mve[k] = base
	}
	for _, k := range invariants {
		base, err := take(nums.Regs[k].Class, 1)
		if err != nil {
			return nil, 0, stats, err
		}
		static[k] = base
	}
	stats.RotPR += s.Stages // the stage predicates still rotate

	physDef := func(c, k int, r ir.Reg) ir.Reg {
		if !r.Virtual {
			return r
		}
		if b := static[k]; b >= 0 {
			return ir.Reg{Class: r.Class, N: b}
		}
		return ir.Reg{Class: r.Class, N: mve[k] + c%unroll}
	}
	physUse := func(c, useID, k int, r ir.Reg) (ir.Reg, error) {
		if !r.Virtual {
			return r, nil
		}
		if b := static[k]; b >= 0 {
			return ir.Reg{Class: r.Class, N: b}, nil
		}
		base := mve[k]
		if base < 0 {
			return ir.None, fmt.Errorf("core: %s: no MVE set for %s", l.Name, r)
		}
		d := defID[k]
		if d < 0 {
			return ir.None, fmt.Errorf("core: %s: %s has no definition", l.Name, r)
		}
		delta := regalloc.Delta(s, d, useID)
		slot := ((c-delta)%unroll + unroll) % unroll
		return ir.Reg{Class: r.Class, N: base + slot}, nil
	}

	ii := s.II
	groups := make([][]*ir.Instr, unroll*ii)
	for c := 0; c < unroll; c++ {
		for i, k := range ir.CloneInstrs(l.Body) {
			uses, defs := nums.Uses(i), nums.Defs(i)
			if k.Pred.IsNone() {
				k.Pred = ir.PR(16 + s.Stage(i))
			} else {
				p, err := physUse(c, i, int(uses[len(k.Srcs)]), k.Pred)
				if err != nil {
					return nil, 0, stats, err
				}
				k.Pred = p
			}
			for di, d := range k.Dsts {
				if !d.IsNone() {
					k.Dsts[di] = physDef(c, int(defs[di]), d)
				}
			}
			for si, src := range k.Srcs {
				pu, err := physUse(c, i, int(uses[si]), src)
				if err != nil {
					return nil, 0, stats, err
				}
				k.Srcs[si] = pu
			}
			slot := c*ii + s.Slot(i)
			groups[slot] = append(groups[slot], k)
		}
	}

	prog := &interp.Program{
		Name:           l.Name,
		Pipelined:      true,
		Groups:         groups,
		Stages:         s.Stages,
		RotateEvery:    ii,
		NoDataRotation: true,
	}
	for j, init := range l.Setup {
		if !init.Reg.Virtual {
			prog.Setup = append(prog.Setup, init)
			continue
		}
		k := nums.Setup(j)
		if b := static[k]; b >= 0 {
			e := init
			e.Reg = ir.Reg{Class: init.Reg.Class, N: b}
			prog.Setup = append(prog.Setup, e)
			continue
		}
		base := mve[k]
		if base < 0 {
			continue // initialized but never referenced
		}
		// Loop-carried live-in: the first consumer of source iteration 0
		// reads set slot (stage(def)-1) mod U.
		if carried[k] {
			slot := ((s.Stage(defID[k])-1)%unroll + unroll) % unroll
			e := init
			e.Reg = ir.Reg{Class: init.Reg.Class, N: base + slot}
			prog.Setup = append(prog.Setup, e)
		}
	}
	for j, r := range l.LiveOut {
		if !r.Virtual {
			prog.LiveOut = append(prog.LiveOut, r)
			continue
		}
		b := static[nums.LiveOut(j)]
		if b < 0 {
			return nil, 0, stats, fmt.Errorf("core: %s: live-out %s is not in a static register", l.Name, r)
		}
		prog.LiveOut = append(prog.LiveOut, ir.Reg{Class: r.Class, N: b})
	}
	return prog, unroll, stats, nil
}
