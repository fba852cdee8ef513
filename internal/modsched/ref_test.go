package modsched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/workload"
)

// refMRT is the modulo reservation table of the reference scheduler: the
// same per-row occupancy counters as mrt, with the eviction candidates
// collected into a fresh list.
type refMRT struct {
	m     *machine.Model
	rows  []mrtRow
	rowOf []int
}

func newRefMRT(m *machine.Model, ii, n int) *refMRT {
	t := &refMRT{m: m, rows: make([]mrtRow, ii), rowOf: make([]int, n)}
	for i := range t.rowOf {
		t.rowOf[i] = -1
	}
	last := &t.rows[ii-1]
	last.entries = append(last.entries, mrtEntry{op: -1, port: machine.PortB})
	last.perPort[machine.PortB]++
	last.total++
	return t
}

func (t *refMRT) fits(row int, op ir.Op) (machine.Port, bool) {
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

func (t *refMRT) place(row, op int, port machine.Port) {
	r := &t.rows[row]
	r.entries = append(r.entries, mrtEntry{op: op, port: port})
	r.perPort[port]++
	r.total++
	t.rowOf[op] = row
}

func (t *refMRT) remove(op int) {
	row := t.rowOf[op]
	if row < 0 {
		return
	}
	r := &t.rows[row]
	for i, e := range r.entries {
		if e.op == op {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			r.perPort[e.port]--
			r.total--
			t.rowOf[op] = -1
			return
		}
	}
}

// conflicts returns every occupant of the port class op needs when that
// class is full, or else the first occupant when the row is only bound by
// issue width. The implicit branch is never a candidate.
func (t *refMRT) conflicts(row int, op ir.Op) []int {
	var out []int
	port, aType := t.m.PortOf(op)
	r := &t.rows[row]
	needPortSpace := false
	if aType {
		needPortSpace = r.perPort[machine.PortI] >= t.m.Units[machine.PortI] &&
			r.perPort[machine.PortM] >= t.m.Units[machine.PortM]
	} else {
		needPortSpace = r.perPort[port] >= t.m.Units[port]
	}
	for _, e := range r.entries {
		if e.op < 0 {
			continue
		}
		if needPortSpace {
			if aType && (e.port == machine.PortI || e.port == machine.PortM) {
				out = append(out, e.op)
			}
			if !aType && e.port == port {
				out = append(out, e.op)
			}
		}
	}
	if len(out) == 0 && r.total >= t.m.IssueWidth {
		for _, e := range r.entries {
			if e.op >= 0 {
				out = append(out, e.op)
				break
			}
		}
	}
	return out
}

// scheduleAtIIRef is the iterative modulo scheduler written the plain
// way: every pick rescans the priority order from the top, and a forced
// placement collects the row's eviction candidates into a list and takes
// the first lowest-height one. ScheduleAtII must agree with it on every
// outcome, placement and counter.
func scheduleAtIIRef(m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn) (*Schedule, bool) {
	body := g.Loop.Body
	n := len(body)
	budget := DefaultBudgetRatio * n
	if budget < 32 {
		budget = 32
	}
	heights := g.Heights(ii, latf)
	time := make([]int, n)
	port := make([]machine.Port, n)
	scheduled := make([]bool, n)
	lastTried := make([]int, n)
	for i := range lastTried {
		lastTried[i] = -1
	}
	table := newRefMRT(m, ii, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if heights[order[a]] != heights[order[b]] {
			return heights[order[a]] > heights[order[b]]
		}
		return order[a] < order[b]
	})
	pick := func() int {
		for _, i := range order {
			if !scheduled[i] {
				return i
			}
		}
		return -1
	}

	attempts, evictions := 0, 0
	for {
		op := pick()
		if op < 0 {
			break
		}
		if attempts >= budget {
			return nil, false
		}
		attempts++
		estart := 0
		for _, ei := range g.Pred[op] {
			e := &g.Edges[ei]
			if !scheduled[e.From] {
				continue
			}
			if v := time[e.From] + g.Latency(e, latf) - ii*e.Distance; v > estart {
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
			placedAt = minT
			placed := false
			for !placed {
				if p, ok := table.fits(placedAt%ii, body[op].Op); ok {
					placedPort, placed = p, true
					break
				}
				cands := table.conflicts(placedAt%ii, body[op].Op)
				if len(cands) == 0 {
					break
				}
				victim := cands[0]
				for _, c := range cands[1:] {
					if heights[c] < heights[victim] {
						victim = c
					}
				}
				scheduled[victim] = false
				table.remove(victim)
				evictions++
			}
			if !placed {
				lastTried[op] = placedAt
				continue
			}
		}
		time[op], port[op], lastTried[op], scheduled[op] = placedAt, placedPort, placedAt, true
		table.place(placedAt%ii, op, placedPort)
		for _, ei := range g.Succ[op] {
			e := &g.Edges[ei]
			if e.To == op || !scheduled[e.To] {
				continue
			}
			if time[e.To] < placedAt+g.Latency(e, latf)-ii*e.Distance {
				scheduled[e.To] = false
				table.remove(e.To)
				evictions++
			}
		}
		for _, ei := range g.Succ[op] {
			e := &g.Edges[ei]
			if e.To == op && g.Latency(e, latf) > ii*e.Distance {
				return nil, false
			}
		}
	}
	s := &Schedule{II: ii, Time: time, Port: port, Attempts: attempts, Evictions: evictions}
	for i := range time {
		if st := time[i]/ii + 1; st > s.Stages {
			s.Stages = st
		}
	}
	return s, true
}

// sameAsRef reports how ScheduleAtII's outcome differs from the
// reference scheduler's at one II, or "" when they agree.
func sameAsRef(m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn) string {
	got, gotOK := ScheduleAtII(m, g, ii, latf, Options{})
	want, wantOK := scheduleAtIIRef(m, g, ii, latf)
	switch {
	case gotOK != wantOK:
		return fmt.Sprintf("ok %t, reference %t", gotOK, wantOK)
	case !gotOK:
		return ""
	case !reflect.DeepEqual(got.Time, want.Time):
		return fmt.Sprintf("Time %v, reference %v", got.Time, want.Time)
	case !reflect.DeepEqual(got.Port, want.Port):
		return fmt.Sprintf("Port %v, reference %v", got.Port, want.Port)
	case got.Attempts != want.Attempts || got.Evictions != want.Evictions:
		return fmt.Sprintf("attempts/evictions %d/%d, reference %d/%d",
			got.Attempts, got.Evictions, want.Attempts, want.Evictions)
	case got.Stages != want.Stages:
		return fmt.Sprintf("Stages %d, reference %d", got.Stages, want.Stages)
	}
	return ""
}

// TestScheduleAtIIMatchesReference holds ScheduleAtII to the reference
// scheduler on every workload loop body and the size-scaled archetypes,
// after HLO, under base and hint-derived load latencies, at every II
// from below MinII (where an attempt exhausts its budget) to the top of
// the pipeliner's search range.
func TestScheduleAtIIMatchesReference(t *testing.T) {
	m := machine.Itanium2()
	hinted := func(in *ir.Instr) int { return m.LoadLatency(in, true) }
	loops := map[string]func() *ir.Loop{}
	for _, b := range workload.All() {
		for i := range b.Loops {
			loops[b.Name+"/"+b.Loops[i].Name] = b.Loops[i].Gen
		}
	}
	for n := 2; n <= 16; n += 2 {
		loops[fmt.Sprintf("multistreamxor-%d", n)], _ = workload.MultiStreamXor(n, 1024)
	}
	for _, lanes := range []int{2, 8, 16, 24} {
		loops[fmt.Sprintf("regpressurefp-%d", lanes)], _ = workload.RegPressureFP(lanes, 1024)
	}
	seen := map[string]bool{}
	for name, gen := range loops {
		l := gen()
		if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Specs that share a generator have the same body.
		if key := l.String(); seen[key] {
			continue
		} else {
			seen[key] = true
		}
		g, err := ddg.Build(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, lat := range []ddg.LatencyFn{baseLat(m), hinted} {
			minII := max(ResMII(m, l.Body), g.RecMII(lat))
			top := 2*minII + 16
			if testing.Short() {
				top = minII + 4
			}
			for ii := max(1, minII-3); ii <= top; ii++ {
				if d := sameAsRef(m, g, ii, lat); d != "" {
					t.Fatalf("%s II=%d: %s", name, ii, d)
				}
			}
		}
		g.Release()
	}
}
