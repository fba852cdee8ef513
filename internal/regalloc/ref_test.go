package regalloc

import (
	"fmt"
	"sort"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
)

// allocateRef is the allocator as it was before the schedule-independent
// plan was split out: it rescans the body once per virtual register and
// once more per use to find the def site. The differential tests hold
// Allocate to its results and error texts.
func allocateRef(m *machine.Model, g *ddg.Graph, s *modsched.Schedule) (*Assignment, error) {
	l := g.Loop
	asn := &Assignment{StagePredBase: 16}
	phys := map[ir.Reg]Alloc{}
	nums := g.Numbering()
	inPlace := g.InPlaceRegs()

	type vreg struct {
		r     ir.Reg
		defID int
	}
	var defined []vreg
	seen := map[ir.Reg]bool{}
	for i, in := range l.Body {
		for _, d := range in.AllDefs() {
			if !d.Virtual || seen[d] {
				continue
			}
			seen[d] = true
			defined = append(defined, vreg{d, i})
		}
	}
	var invariant []ir.Reg
	for _, in := range l.Body {
		for _, u := range in.AllUses() {
			if u.Virtual && !seen[u] {
				seen[u] = true
				invariant = append(invariant, u)
			}
		}
	}
	sort.Slice(invariant, func(a, b int) bool {
		if invariant[a].Class != invariant[b].Class {
			return invariant[a].Class < invariant[b].Class
		}
		return invariant[a].N < invariant[b].N
	})

	type blade struct {
		v       vreg
		width   int
		loExt   int
		hasInit bool
	}
	var blades []blade
	var statics []vreg
	for _, v := range defined {
		if inPlace[nums.Index(v.r)] >= 0 {
			statics = append(statics, v)
			continue
		}
		maxDelta := 0
		carried := false
		for i, in := range l.Body {
			for _, u := range in.AllUses() {
				if u != v.r {
					continue
				}
				d, _ := useDeltaRef(l, s, i, v.r)
				if d < 0 {
					return nil, fmt.Errorf("regalloc: %s: negative rotation delta %d for %s at body[%d]",
						l.Name, d, v.r, i)
				}
				if d > maxDelta {
					maxDelta = d
				}
				if v.defID >= i {
					carried = true
				}
			}
		}
		b := blade{v: v, width: maxDelta + 1}
		if _, hasInit := l.InitValue(v.r); hasInit && carried {
			b.hasInit = true
			b.loExt = s.Stage(v.defID)
		}
		blades = append(blades, b)
	}

	next := map[ir.RegClass]int{
		ir.ClassGR: 32,
		ir.ClassFR: 32,
		ir.ClassPR: 16 + s.Stages,
	}
	capacity := map[ir.RegClass]int{
		ir.ClassGR: 32 + m.RotGR,
		ir.ClassFR: 32 + m.RotFR,
		ir.ClassPR: 16 + m.RotPR,
	}
	sort.SliceStable(blades, func(a, b int) bool { return blades[a].v.defID < blades[b].v.defID })
	for _, b := range blades {
		lo := next[b.v.r.Class]
		base := lo + b.loExt
		total := b.loExt + b.width
		if lo+total > capacity[b.v.r.Class] {
			return nil, &OverflowError{
				Class:    b.v.r.Class,
				Need:     lo + total - (capacity[b.v.r.Class] - rotSize(m, b.v.r.Class)),
				Capacity: rotSize(m, b.v.r.Class),
			}
		}
		phys[b.v.r] = Alloc{Kind: KindRotating, Base: base, Width: b.width}
		next[b.v.r.Class] = lo + total
		switch b.v.r.Class {
		case ir.ClassGR:
			asn.Stats.RotGR += total
		case ir.ClassFR:
			asn.Stats.RotFR += total
		case ir.ClassPR:
			asn.Stats.RotPR += total
		}
		if b.hasInit {
			init, _ := l.InitEntry(b.v.r)
			init.Reg = ir.Reg{Class: b.v.r.Class, N: lo + 1}
			asn.RotInits = append(asn.RotInits, init)
		}
	}
	asn.Stats.RotPR += s.Stages

	staticNext := map[ir.RegClass]int{
		ir.ClassGR: 1,
		ir.ClassFR: 2,
		ir.ClassPR: 1,
	}
	staticCap := map[ir.RegClass]int{
		ir.ClassGR: 1 + m.StaticGR,
		ir.ClassFR: 2 + m.StaticFR,
		ir.ClassPR: 1 + m.StaticPR,
	}
	assignStatic := func(r ir.Reg) error {
		n := staticNext[r.Class]
		if n >= staticCap[r.Class] {
			return fmt.Errorf("regalloc: %s: static %s register file exhausted (%d in use)",
				l.Name, r.Class, n)
		}
		phys[r] = Alloc{Kind: KindStatic, Base: n}
		staticNext[r.Class] = n + 1
		switch r.Class {
		case ir.ClassGR:
			asn.Stats.StaticGR++
		case ir.ClassFR:
			asn.Stats.StaticFR++
		case ir.ClassPR:
			asn.Stats.StaticPR++
		}
		return nil
	}
	sort.SliceStable(statics, func(a, b int) bool { return statics[a].defID < statics[b].defID })
	for _, v := range statics {
		if err := assignStatic(v.r); err != nil {
			return nil, err
		}
	}
	for _, r := range invariant {
		if err := assignStatic(r); err != nil {
			return nil, err
		}
	}
	asn.phys = make([]Alloc, nums.Len())
	for r, a := range phys {
		asn.phys[nums.Index(r)] = a
	}
	asn.Plan = &Plan{Regs: nums}
	return asn, nil
}

// useDeltaRef finds the def site of r by scanning the body, then returns
// stage(use) + distance - stage(def).
func useDeltaRef(l *ir.Loop, s *modsched.Schedule, useID int, r ir.Reg) (int, bool) {
	for i, in := range l.Body {
		for _, d := range in.AllDefs() {
			if d == r {
				dist := 0
				if i >= useID {
					dist = 1
				}
				return s.Stage(useID) + dist - s.Stage(i), true
			}
		}
	}
	return 0, false
}
