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
	inPlace := g.InPlaceRegs()

	// Classify virtual registers exactly like the rotating allocator. mve
	// maps a rotating candidate to the first plain register of its U-set.
	mve := map[ir.Reg]int{}
	static := map[ir.Reg]int{}

	defID := g.DefSites()
	var order []ir.Reg
	for _, in := range l.Body {
		for _, d := range in.AllDefs() {
			if d.Virtual {
				order = append(order, d)
			}
		}
	}
	var invariants []ir.Reg
	seen := map[ir.Reg]bool{}
	for _, in := range l.Body {
		for _, u := range in.AllUses() {
			if u.Virtual && !seen[u] {
				seen[u] = true
				if _, defined := defID[u]; !defined {
					invariants = append(invariants, u)
				}
			}
		}
	}

	// Cross-stage in-place reads are as illegal here as under rotation.
	for i, in := range l.Body {
		for _, u := range in.AllUses() {
			if d, ok := inPlace[u]; ok && d != i && s.Stage(d) != s.Stage(i) {
				return nil, 0, stats, fmt.Errorf("core: %s: body[%d] reads in-place register %s across stages",
					l.Name, i, u)
			}
		}
	}

	// The unroll factor is the longest lifetime in kernel iterations;
	// carried marks the values read before their definition in program
	// order (loop-carried).
	carried := map[ir.Reg]bool{}
	unroll := 1
	for i, in := range l.Body {
		for _, u := range in.AllUses() {
			d, ok := defID[u]
			if _, ip := inPlace[u]; !ok || !u.Virtual || ip {
				continue
			}
			delta := regalloc.Delta(s, d, i)
			if delta < 0 {
				return nil, 0, stats, fmt.Errorf("core: %s: negative delta for %s", l.Name, u)
			}
			unroll = max(unroll, delta+1)
			if d >= i {
				carried[u] = true
			}
		}
	}

	// Register assignment over the *whole* plain files (no rotation means
	// the r32+/f32+ regions are ordinary registers).
	next := map[ir.RegClass]int{ir.ClassGR: 1, ir.ClassFR: 2, ir.ClassPR: 1}
	limit := map[ir.RegClass]int{
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

	for _, v := range order {
		if _, ip := inPlace[v]; ip {
			base, err := take(v.Class, 1)
			if err != nil {
				return nil, 0, stats, err
			}
			static[v] = base
			continue
		}
		base, err := take(v.Class, unroll)
		if err != nil {
			return nil, 0, stats, err
		}
		mve[v] = base
	}
	for _, v := range invariants {
		base, err := take(v.Class, 1)
		if err != nil {
			return nil, 0, stats, err
		}
		static[v] = base
	}
	stats.RotPR += s.Stages // the stage predicates still rotate

	physDef := func(c int, r ir.Reg) ir.Reg {
		if !r.Virtual {
			return r
		}
		if b, ok := static[r]; ok {
			return ir.Reg{Class: r.Class, N: b}
		}
		base := mve[r]
		return ir.Reg{Class: r.Class, N: base + c%unroll}
	}
	physUse := func(c, useID int, r ir.Reg) (ir.Reg, error) {
		if !r.Virtual {
			return r, nil
		}
		if b, ok := static[r]; ok {
			return ir.Reg{Class: r.Class, N: b}, nil
		}
		base, ok := mve[r]
		if !ok {
			return ir.None, fmt.Errorf("core: %s: no MVE set for %s", l.Name, r)
		}
		d, ok := defID[r]
		if !ok {
			return ir.None, fmt.Errorf("core: %s: %s has no definition", l.Name, r)
		}
		delta := regalloc.Delta(s, d, useID)
		slot := ((c-delta)%unroll + unroll) % unroll
		return ir.Reg{Class: r.Class, N: base + slot}, nil
	}

	ii := s.II
	groups := make([][]*ir.Instr, unroll*ii)
	for c := 0; c < unroll; c++ {
		for i, in := range l.Body {
			k := in.Clone()
			if k.Pred.IsNone() {
				k.Pred = ir.PR(16 + s.Stage(i))
			} else {
				p, err := physUse(c, i, k.Pred)
				if err != nil {
					return nil, 0, stats, err
				}
				k.Pred = p
			}
			for di, d := range k.Dsts {
				if !d.IsNone() {
					k.Dsts[di] = physDef(c, d)
				}
			}
			for si, src := range k.Srcs {
				pu, err := physUse(c, i, src)
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
	for _, init := range l.Setup {
		if !init.Reg.Virtual {
			prog.Setup = append(prog.Setup, init)
			continue
		}
		if b, ok := static[init.Reg]; ok {
			e := init
			e.Reg = ir.Reg{Class: init.Reg.Class, N: b}
			prog.Setup = append(prog.Setup, e)
			continue
		}
		base, ok := mve[init.Reg]
		if !ok {
			continue // initialized but never referenced
		}
		// Loop-carried live-in: the first consumer of source iteration 0
		// reads set slot (stage(def)-1) mod U.
		if carried[init.Reg] {
			slot := ((s.Stage(defID[init.Reg])-1)%unroll + unroll) % unroll
			e := init
			e.Reg = ir.Reg{Class: init.Reg.Class, N: base + slot}
			prog.Setup = append(prog.Setup, e)
		}
	}
	for _, r := range l.LiveOut {
		if !r.Virtual {
			prog.LiveOut = append(prog.LiveOut, r)
			continue
		}
		b, ok := static[r]
		if !ok {
			return nil, 0, stats, fmt.Errorf("core: %s: live-out %s is not in a static register", l.Name, r)
		}
		prog.LiveOut = append(prog.LiveOut, ir.Reg{Class: r.Class, N: b})
	}
	return prog, unroll, stats, nil
}
