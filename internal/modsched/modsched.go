// Package modsched implements iterative modulo scheduling (Rau, MICRO
// 1994): height-based priorities, a modulo reservation table over the
// machine model's dispersal ports, eviction-based backtracking with a
// scheduling budget, and the MinII = max(ResMII, RecMII) search performed
// by the caller (package core) so that the latency-reduction fallback
// ladder of the paper can interleave with II exploration.
package modsched

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
)

// Schedule is the result of modulo scheduling one loop at a fixed II.
type Schedule struct {
	// II is the initiation interval in cycles.
	II int
	// Time[i] is the absolute schedule time of body instruction i; its
	// kernel slot is Time[i] % II and its stage Time[i] / II.
	Time []int
	// Port[i] is the dispersal port the instruction was assigned.
	Port []machine.Port
	// Stages is the number of pipeline stages (max stage + 1).
	Stages int
	// Attempts counts individual placement operations performed, the
	// compile-time currency of the paper's Sec. 3.3 discussion.
	Attempts int
	// Evictions counts backtracking displacements: placements undone
	// either to force a higher-priority operation into a full row or
	// because a new placement violated an already-scheduled successor.
	Evictions int
}

// Slot returns instruction i's cycle within the kernel.
func (s *Schedule) Slot(i int) int { return s.Time[i] % s.II }

// Stage returns instruction i's pipeline stage.
func (s *Schedule) Stage(i int) int { return s.Time[i] / s.II }

// ResMII computes the resource-constrained lower bound on the II for the
// loop body (plus the implicit loop-closing branch): per-port unit counts,
// A-type integer operations allowed on either I or M units, and total issue
// width.
func ResMII(m *machine.Model, body []*ir.Instr) int {
	var mem, aType, fp, br int
	for _, in := range body {
		port, a := m.PortOf(in.Op)
		switch {
		case a:
			aType++
		case port == machine.PortM:
			mem++
		case port == machine.PortF:
			fp++
		case port == machine.PortB:
			br++
		}
	}
	br++ // the implicit br.ctop/br.cloop
	total := len(body) + 1
	res := ceilDiv(mem, m.Units[machine.PortM])
	if v := ceilDiv(fp, m.Units[machine.PortF]); v > res {
		res = v
	}
	if v := ceilDiv(br, m.Units[machine.PortB]); v > res {
		res = v
	}
	// A-type ops fill I units first, then spill into spare M capacity.
	if v := ceilDiv(mem+aType, m.Units[machine.PortM]+m.Units[machine.PortI]); v > res {
		res = v
	}
	if v := ceilDiv(total, m.IssueWidth); v > res {
		res = v
	}
	if res < 1 {
		res = 1
	}
	return res
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// mrt is the modulo reservation table: per kernel row, which instructions
// occupy which ports. Each row carries its port-occupancy vector (unit
// counts per dispersal port, plus the row's total issue slots) maintained
// incrementally on place/remove, so the hot fits/victim checks read the
// counts directly instead of rescanning the row's occupant list.
type mrt struct {
	m    *machine.Model
	ii   int
	rows []mrtRow
	// rowOf[op] is the kernel row body instruction op currently occupies,
	// -1 when unplaced; it makes eviction O(row occupants) instead of a
	// full-table sweep.
	rowOf []int
}

type mrtRow struct {
	entries []mrtEntry
	perPort [machine.NumPorts]int
	total   int
}

type mrtEntry struct {
	op   int // body index; -1 for the implicit branch
	port machine.Port
}

func newMRT(m *machine.Model, ii, n int, sc *scratch) *mrt {
	t := &sc.table
	t.m, t.ii = m, ii
	t.rows = sc.rows(ii)
	t.rowOf = sc.ints(&sc.rowOfBuf, n, -1)
	// Reserve the loop-closing branch in the last kernel row.
	last := &t.rows[ii-1]
	last.entries = append(last.entries, mrtEntry{op: -1, port: machine.PortB})
	last.perPort[machine.PortB]++
	last.total++
	return t
}

// fits reports whether op could be placed in the row, and which port it
// would take. A-type operations prefer an I unit and fall back to M.
func (t *mrt) fits(row int, op ir.Op) (machine.Port, bool) {
	r := &t.rows[row]
	if r.total >= t.m.IssueWidth {
		return 0, false
	}
	port, aType := t.m.PortOf(op)
	if aType {
		if r.perPort[machine.PortI] < t.m.Units[machine.PortI] {
			return machine.PortI, true
		}
		if r.perPort[machine.PortM] < t.m.Units[machine.PortM] {
			return machine.PortM, true
		}
		return 0, false
	}
	if r.perPort[port] < t.m.Units[port] {
		return port, true
	}
	return 0, false
}

func (t *mrt) place(row int, opIdx int, port machine.Port) {
	r := &t.rows[row]
	r.entries = append(r.entries, mrtEntry{op: opIdx, port: port})
	r.perPort[port]++
	r.total++
	t.rowOf[opIdx] = row
}

func (t *mrt) remove(opIdx int) {
	row := t.rowOf[opIdx]
	if row < 0 {
		return
	}
	r := &t.rows[row]
	for i, e := range r.entries {
		if e.op == opIdx {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			r.perPort[e.port]--
			r.total--
			t.rowOf[opIdx] = -1
			return
		}
	}
}

// victim returns the occupant of the row to evict so that op can take
// it, or -1 when none can go. When op's port class is full, that is the
// first occupant of the class in entry order with the lowest height;
// when the row is bound only by issue width, its first occupant. The
// implicit branch is never a victim.
func (t *mrt) victim(row int, op ir.Op, heights []int) int {
	port, aType := t.m.PortOf(op)
	r := &t.rows[row]
	var full bool
	if aType {
		full = r.perPort[machine.PortI] >= t.m.Units[machine.PortI] &&
			r.perPort[machine.PortM] >= t.m.Units[machine.PortM]
	} else {
		full = r.perPort[port] >= t.m.Units[port]
	}
	v := -1
	if full {
		for _, e := range r.entries {
			if e.op < 0 {
				continue
			}
			inClass := e.port == port
			if aType {
				inClass = e.port == machine.PortI || e.port == machine.PortM
			}
			if inClass && (v < 0 || heights[e.op] < heights[v]) {
				v = e.op
			}
		}
	}
	if v < 0 && r.total >= t.m.IssueWidth {
		for _, e := range r.entries {
			if e.op >= 0 {
				return e.op
			}
		}
	}
	return v
}

// scratch bundles the per-ScheduleAtII working state: the heights, the
// priority order and each operation's rank in it, the placement times
// and ports, the scheduled/lastTried arrays and the modulo reservation
// table with its rows. Pooled so the II search (which calls ScheduleAtII
// once or twice per candidate II) reuses the arenas instead of
// reallocating them every attempt; a successful attempt copies Time and
// Port out into its Schedule.
type scratch struct {
	scheduledBuf []bool
	heightsBuf   []int
	timeBuf      []int
	portBuf      []machine.Port
	lastTriedBuf []int
	orderBuf     []int
	rankBuf      []int
	rowOfBuf     []int
	rowsBuf      []mrtRow
	table        mrt
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// bools returns a zeroed n-length bool slice backed by the scratch.
func (sc *scratch) bools(n int) []bool {
	if cap(sc.scheduledBuf) < n {
		sc.scheduledBuf = make([]bool, n)
	}
	s := sc.scheduledBuf[:n]
	clear(s)
	return s
}

// ints returns an n-length int slice backed by *buf, filled with fill.
func (sc *scratch) ints(buf *[]int, n, fill int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

// ports returns an n-length port slice backed by the scratch. Every
// entry is written before a successful attempt reads it.
func (sc *scratch) ports(n int) []machine.Port {
	if cap(sc.portBuf) < n {
		sc.portBuf = make([]machine.Port, n)
	}
	return sc.portBuf[:n]
}

// rows returns ii empty MRT rows, reusing each row's entry array.
func (sc *scratch) rows(ii int) []mrtRow {
	if cap(sc.rowsBuf) < ii {
		sc.rowsBuf = append(sc.rowsBuf[:cap(sc.rowsBuf)], make([]mrtRow, ii-cap(sc.rowsBuf))...)
	}
	rows := sc.rowsBuf[:ii]
	for i := range rows {
		rows[i].entries = rows[i].entries[:0]
		rows[i].perPort = [machine.NumPorts]int{}
		rows[i].total = 0
	}
	return rows
}

// DefaultBudgetRatio is the placement budget multiplier: one attempt
// may place at most DefaultBudgetRatio * len(body) operations, floored
// at 32; exceeding it fails the attempt at this II.
const DefaultBudgetRatio = 60

// Options tunes the scheduler.
type Options struct {
	// Trace, when non-nil, receives one obs.SchedEvent per ScheduleAtII
	// call (success or failure).
	Trace *obs.Trace
}

// ScheduleAtII tries to find a modulo schedule for the loop at the given
// II under the load-latency policy latf. It returns nil, false when the
// budget is exhausted without a complete schedule.
func ScheduleAtII(m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, opts Options) (*Schedule, bool) {
	if ii < 1 {
		panic(fmt.Sprintf("modsched: non-positive II %d", ii))
	}
	body := g.Loop.Body
	n := len(body)
	budget := DefaultBudgetRatio * n
	if budget < 32 {
		budget = 32
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	heights := sc.ints(&sc.heightsBuf, n, 0)
	g.HeightsInto(heights, ii, latf)
	time := sc.ints(&sc.timeBuf, n, 0)
	port := sc.ports(n)
	scheduled := sc.bools(n)
	// lastTried[i] remembers the last slot at which i was placed, so a
	// re-placement after eviction is forced to move forward (Rau's rule).
	lastTried := sc.ints(&sc.lastTriedBuf, n, -1)
	table := newMRT(m, ii, n, sc)

	// Priority order: height desc, then program order for determinism.
	// The key is unique, so any sort gives this order.
	order := sc.ints(&sc.orderBuf, n, 0)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if heights[a] != heights[b] {
			return cmp.Compare(heights[b], heights[a])
		}
		return cmp.Compare(a, b)
	})
	rank := sc.ints(&sc.rankBuf, n, 0)
	for r, i := range order {
		rank[i] = r
	}
	// Every operation before order[next] is scheduled, so the next one to
	// place is the first unscheduled one from there; unscheduling an
	// operation rewinds next to its rank.
	next := 0
	unschedule := func(op int) {
		scheduled[op] = false
		table.remove(op)
		next = min(next, rank[op])
	}

	attempts := 0
	evictions := 0
	emit := func(ok bool, stages int) {
		opts.Trace.Emit(obs.SchedEvent{
			II: ii, OK: ok, Attempts: attempts, Evictions: evictions,
			Budget: budget, Stages: stages,
		})
	}
	for {
		for next < n && scheduled[order[next]] {
			next++
		}
		if next == n {
			break
		}
		op := order[next]
		if attempts >= budget {
			if opts.Trace.On() {
				emit(false, 0)
			}
			return nil, false
		}
		attempts++

		// Earliest start from scheduled predecessors.
		estart := 0
		for _, ei := range g.Pred[op] {
			e := &g.Edges[ei]
			if !scheduled[e.From] {
				continue
			}
			v := time[e.From] + g.Latency(e, latf) - ii*e.Distance
			if v > estart {
				estart = v
			}
		}
		minT := estart
		if lastTried[op] >= 0 && lastTried[op]+1 > minT {
			minT = lastTried[op] + 1
		}

		placedAt, placedPort, found := -1, machine.Port(0), false
		for t := minT; t < estart+ii; t++ {
			if p, ok := table.fits(t%ii, body[op].Op); ok {
				placedAt, placedPort, found = t, p, true
				break
			}
		}
		if !found {
			// Force placement, evicting the lowest-priority conflicting
			// occupants one at a time until the operation fits (Rau's
			// displacement rule).
			placedAt = minT
			placed := false
			for !placed {
				if p, ok := table.fits(placedAt%ii, body[op].Op); ok {
					placedPort, placed = p, true
					break
				}
				v := table.victim(placedAt%ii, body[op].Op, heights)
				if v < 0 {
					break
				}
				unschedule(v)
				evictions++
			}
			if !placed {
				// Row saturated by the branch reservation or other
				// unevictable pressure; slide forward next time.
				lastTried[op] = placedAt
				continue
			}
		}

		time[op] = placedAt
		port[op] = placedPort
		lastTried[op] = placedAt
		scheduled[op] = true
		table.place(placedAt%ii, op, placedPort)

		// Evict scheduled successors whose dependence is now violated.
		for _, ei := range g.Succ[op] {
			e := &g.Edges[ei]
			if e.To == op || !scheduled[e.To] {
				continue
			}
			if time[e.To] < placedAt+g.Latency(e, latf)-ii*e.Distance {
				unschedule(e.To)
				evictions++
			}
		}
		// Self-edges (post-increment) are satisfiable at any II >= 1 since
		// their latency is 1; verify to catch malformed graphs.
		for _, ei := range g.Succ[op] {
			e := &g.Edges[ei]
			if e.To == op && g.Latency(e, latf) > ii*e.Distance {
				if opts.Trace.On() {
					emit(false, 0)
				}
				return nil, false // irrecoverable at this II
			}
		}
	}

	s := &Schedule{II: ii, Time: slices.Clone(time), Port: slices.Clone(port),
		Attempts: attempts, Evictions: evictions}
	for i := range time {
		if st := time[i]/ii + 1; st > s.Stages {
			s.Stages = st
		}
	}
	if opts.Trace.On() {
		emit(true, s.Stages)
	}
	return s, true
}

// Validate checks that the schedule respects every dependence of the graph
// under latf: Time[to] >= Time[from] + latency - II*distance. It returns a
// descriptive error for the first violation, and also re-checks resource
// legality of each kernel row. Tests use it as the scheduler's oracle.
func (s *Schedule) Validate(m *machine.Model, g *ddg.Graph, latf ddg.LatencyFn) error {
	for i := range g.Edges {
		e := &g.Edges[i]
		need := s.Time[e.From] + g.Latency(e, latf) - s.II*e.Distance
		if s.Time[e.To] < need {
			return fmt.Errorf("modsched: dep %d->%d (%s, dist %d, lat %d) violated: t[%d]=%d < %d",
				e.From, e.To, e.Kind, e.Distance, g.Latency(e, latf), e.To, s.Time[e.To], need)
		}
	}
	// Resource recheck.
	type rowUse struct {
		perPort [machine.NumPorts]int
		total   int
	}
	rows := make([]rowUse, s.II)
	rows[s.II-1].perPort[machine.PortB]++ // implicit branch
	rows[s.II-1].total++
	for i, in := range g.Loop.Body {
		r := s.Time[i] % s.II
		rows[r].perPort[s.Port[i]]++
		rows[r].total++
		wantPort, aType := m.PortOf(in.Op)
		if !aType && s.Port[i] != wantPort {
			return fmt.Errorf("modsched: body[%d] %s on wrong port %s", i, in.Op, s.Port[i])
		}
		if aType && s.Port[i] != machine.PortI && s.Port[i] != machine.PortM {
			return fmt.Errorf("modsched: A-type body[%d] on port %s", i, s.Port[i])
		}
	}
	for r, u := range rows {
		if u.total > m.IssueWidth {
			return fmt.Errorf("modsched: row %d issues %d > width %d", r, u.total, m.IssueWidth)
		}
		for p := machine.Port(0); p < machine.NumPorts; p++ {
			if u.perPort[p] > m.Units[p] {
				return fmt.Errorf("modsched: row %d uses %d %s units > %d", r, u.perPort[p], p, m.Units[p])
			}
		}
	}
	for i := range s.Time {
		if s.Time[i] < 0 {
			return fmt.Errorf("modsched: negative time for body[%d]", i)
		}
	}
	return nil
}
