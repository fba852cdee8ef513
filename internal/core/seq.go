package core

import (
	"fmt"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

// GenSequential compiles the loop without pipelining: an acyclic list
// schedule of the body (base latencies, full dispersal constraints) closed
// by br.cloop. All virtual registers receive distinct static physical
// registers — without rotation the rotating regions are ordinary
// registers. This is how loops below the pipelining profitability
// threshold execute, and it reproduces the source-loop timing of the
// paper's Fig. 1.
func GenSequential(m *machine.Model, l *ir.Loop) (*interp.Program, error) {
	if err := l.Verify(); err != nil {
		return nil, err
	}
	nums := l.NumberRegs()
	nr := nums.Len()

	// Static assignment: dense per class, in order of first reference.
	// phys[k] is register k's physical home, None until assigned.
	phys := make([]ir.Reg, nr)
	next := [...]int{ir.ClassGR: 1, ir.ClassFR: 2, ir.ClassPR: 1}
	limit := [...]int{ir.ClassGR: interp.NumGR, ir.ClassFR: interp.NumFR, ir.ClassPR: interp.NumPR}
	assign := func(k int, r ir.Reg) (ir.Reg, error) {
		if !r.Virtual {
			return r, nil
		}
		if p := phys[k]; !p.IsNone() {
			return p, nil
		}
		n := next[r.Class]
		if n >= limit[r.Class] {
			return ir.None, fmt.Errorf("core: %s: out of %s registers in sequential codegen", l.Name, r.Class)
		}
		next[r.Class] = n + 1
		p := ir.Reg{Class: r.Class, N: n}
		phys[k] = p
		return p, nil
	}

	// List scheduling with intra-iteration dependences:
	//   RAW (def before use in program order): t_use >= t_def + latency
	//   WAR (use before def, loop-carried value): t_def >= t_use
	// (reads happen before writes within an issue group).
	// defAt[k] is the last instruction that writes register k, -1 for
	// none; lastUse[k] the latest issue time of its uses scheduled so far.
	n := len(l.Body)
	timeOf := make([]int, n)
	tables := make([]int, 2*nr)
	defAt, lastUse := tables[:nr], tables[nr:]
	for k := range defAt {
		defAt[k] = -1
	}
	for i := range l.Body {
		for _, d := range nums.Defs(i) {
			if d >= 0 {
				defAt[d] = i
			}
		}
	}
	base := BaseLatFn(m)
	resLat := func(in *ir.Instr, r ir.Reg) int {
		if in.Op.IsLoad() && r == in.Dsts[0] {
			return base(in)
		}
		if in.Op.IsMem() && r == in.BaseReg() {
			return 1
		}
		return m.Latency(in.Op)
	}

	type rowUse struct {
		perPort [machine.NumPorts]int
		total   int
	}
	rows := make([]rowUse, 0, n+1)
	rowFits := func(t int, op ir.Op) (machine.Port, bool) {
		for len(rows) <= t {
			rows = append(rows, rowUse{})
		}
		u := &rows[t]
		if u.total >= m.IssueWidth {
			return 0, false
		}
		port, aType := m.PortOf(op)
		if aType {
			if u.perPort[machine.PortI] < m.Units[machine.PortI] {
				return machine.PortI, true
			}
			if u.perPort[machine.PortM] < m.Units[machine.PortM] {
				return machine.PortM, true
			}
			return 0, false
		}
		if u.perPort[port] < m.Units[port] {
			return port, true
		}
		return 0, false
	}

	for i, in := range l.Body {
		earliest := 0
		uses := nums.Uses(i)
		for _, u := range uses {
			if u < 0 {
				continue
			}
			d := defAt[u]
			if d < 0 {
				continue
			}
			if d < i {
				// RAW within iteration.
				if v := timeOf[d] + resLat(l.Body[d], nums.Regs[u]); v > earliest {
					earliest = v
				}
			}
			// d >= i: loop-carried; the runtime stalls if needed, and the
			// WAR constraint below keeps this iteration's def late enough.
		}
		for _, d := range nums.Defs(i) {
			// WAR: every earlier use of d must read before we write.
			if d >= 0 && lastUse[d] > earliest {
				earliest = lastUse[d]
			}
		}
		// Explicit memory ordering.
		for _, dep := range l.MemDeps {
			if dep.To == i && dep.Distance == 0 {
				if v := timeOf[dep.From] + dep.Latency; v > earliest {
					earliest = v
				}
			}
		}
		t := earliest
		for {
			if port, ok := rowFits(t, in.Op); ok {
				u := &rows[t]
				u.perPort[port]++
				u.total++
				break
			}
			t++
		}
		timeOf[i] = t
		for _, u := range uses {
			if u >= 0 && t > lastUse[u] {
				lastUse[u] = t
			}
		}
	}

	length := 0
	for i := range timeOf {
		if timeOf[i]+1 > length {
			length = timeOf[i] + 1
		}
	}
	groups := make([][]*ir.Instr, length)
	for i, k := range ir.CloneInstrs(l.Body) {
		uses, defs := nums.Uses(i), nums.Defs(i)
		if !k.Pred.IsNone() {
			p, err := assign(int(uses[len(k.Srcs)]), k.Pred)
			if err != nil {
				return nil, err
			}
			k.Pred = p
		}
		for di, d := range k.Dsts {
			if d.IsNone() {
				continue
			}
			p, err := assign(int(defs[di]), d)
			if err != nil {
				return nil, err
			}
			k.Dsts[di] = p
		}
		for si, s := range k.Srcs {
			p, err := assign(int(uses[si]), s)
			if err != nil {
				return nil, err
			}
			k.Srcs[si] = p
		}
		groups[timeOf[i]] = append(groups[timeOf[i]], k)
	}

	prog := &interp.Program{Name: l.Name, Pipelined: false, Groups: groups}
	if l.While != nil {
		qp, err := assign(nums.Cond(), l.While.Cond)
		if err != nil {
			return nil, err
		}
		prog.WhileQP = qp
	}
	for j, init := range l.Setup {
		if init.Reg.Virtual {
			p := phys[nums.Setup(j)]
			if p.IsNone() {
				continue // initialized but never referenced
			}
			prog.Setup = append(prog.Setup, ir.RegInit{Reg: p, Val: init.Val, FVal: init.FVal})
			continue
		}
		prog.Setup = append(prog.Setup, init)
	}
	for j, r := range l.LiveOut {
		if r.Virtual {
			p := phys[nums.LiveOut(j)]
			if p.IsNone() {
				return nil, fmt.Errorf("core: %s: live-out %s never referenced by the body", l.Name, r)
			}
			prog.LiveOut = append(prog.LiveOut, p)
			continue
		}
		prog.LiveOut = append(prog.LiveOut, r)
	}
	return prog, nil
}
