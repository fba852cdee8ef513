// Package exact implements an exact modulo scheduler for small loops:
// a branch-and-bound search over schedule times at a fixed II with
// difference-constraint bounds propagation, proving feasibility or
// infeasibility of each candidate II and minimizing the maximum
// register lifetime as a tiebreak. Package core's II search calls a
// Scheduler at each candidate II for the "exact" backend, and Probe
// after the heuristic's search for the "oracle" backend.
//
// The solver decides feasibility within the standard scheduling window
// of optimal modulo-scheduling formulations: each operation's start
// time is restricted to [est(i), est(i) + n·II], where est is the
// longest-path earliest start implied by the dependence difference
// constraints t[to] ≥ t[from] + latency − II·distance and n is the body
// size. An II whose constraint graph carries a positive-weight cycle is
// infeasible outright (the recurrence bound); otherwise "infeasible"
// means no schedule exists inside the window. Solves are bounded by a
// node budget and the caller's context deadline; exhausting either
// yields an undecided verdict, never a wrong proof.
package exact

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
)

// Status is the verdict of one fixed-II solve.
type Status int

const (
	// StatusInfeasible: no schedule exists at this II (within the
	// solver's scheduling window).
	StatusInfeasible Status = iota
	// StatusFeasible: a schedule was found.
	StatusFeasible
	// StatusUnknown: the node budget or deadline ran out undecided.
	StatusUnknown
)

// String names the status using the obs-event vocabulary.
func (s Status) String() string {
	switch s {
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// Limits bounds the exact solver. Loops or IIs beyond the size caps are
// handed to the heuristic backend; node/deadline exhaustion turns a
// solve undecided.
type Limits struct {
	// MaxBody caps the loop body size (instruction count).
	MaxBody int
	// MaxII caps the candidate II the solver will attempt.
	MaxII int
	// MaxNodes caps branch-and-bound node expansions across one SolveMin
	// call (the base solve plus all lifetime-tightening re-solves).
	MaxNodes int64
}

// DefaultLimits returns the production size budget of the exact backend.
func DefaultLimits() Limits {
	return Limits{MaxBody: 24, MaxII: 64, MaxNodes: 400_000}
}

// Stats reports what one SolveMin spent and proved.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes expanded.
	Nodes int64
	// MaxLife is the maximum register lifetime of the returned schedule
	// (-1 when no schedule was found).
	MaxLife int
	// LifeProven reports that MaxLife is provably minimal at this II.
	LifeProven bool
	// Reason names why a solve came back StatusUnknown: "node-budget" or
	// "deadline".
	Reason string
}

// MaxLifetime returns the maximum register lifetime of the schedule:
// the longest def-to-use span t[to] + II·distance − t[from] over the
// graph's register flow dependences. Rotating allocation must dedicate
// roughly lifetime/II registers to a value, so this is the
// register-pressure objective the tiebreak minimizes.
func MaxLifetime(g *ddg.Graph, s *modsched.Schedule) int {
	life := 0
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ddg.DepFlow {
			continue
		}
		if v := s.Time[e.To] + s.II*e.Distance - s.Time[e.From]; v > life {
			life = v
		}
	}
	return life
}

// cons is one difference constraint t[to] >= t[from] + w.
type cons struct {
	from, to, w int
}

// trailEntry records a bounds change for backtracking.
type trailEntry struct {
	v      int
	lo, hi int
}

type rowUse struct {
	perPort [machine.NumPorts]int
	total   int
}

type solver struct {
	m  *machine.Model
	g  *ddg.Graph
	ii int
	n  int

	cons    []cons
	outCons [][]int // constraint indices by from
	inCons  [][]int // constraint indices by to

	lo, hi     []int
	time       []int
	port       []machine.Port
	assigned   []bool
	unassigned int
	rows       []rowUse
	trail      []trailEntry

	ctx      context.Context
	nodes    *int64
	maxNodes int64
	stopped  bool
	deadline bool
}

// pickCountCap bounds how many placement options pickVar counts per
// variable: the search only needs the most-constrained variable, so
// domains are "large enough" past this many options.
const pickCountCap = 8

// newSolver builds the constraint system at one II. maxLife >= 0 adds
// the lifetime-tightening constraints t[from] >= t[to] + II·d − maxLife
// for every register flow edge.
func newSolver(ctx context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, maxLife int, nodes *int64, maxNodes int64) *solver {
	n := len(g.Loop.Body)
	s := &solver{
		m: m, g: g, ii: ii, n: n,
		lo:       make([]int, n),
		hi:       make([]int, n),
		time:     make([]int, n),
		port:     make([]machine.Port, n),
		assigned: make([]bool, n),
		rows:     make([]rowUse, ii),
		ctx:      ctx,
		nodes:    nodes,
		maxNodes: maxNodes,
	}
	s.unassigned = n
	for i := range g.Edges {
		e := &g.Edges[i]
		s.cons = append(s.cons, cons{from: e.From, to: e.To, w: g.Latency(e, latf) - ii*e.Distance})
		if maxLife >= 0 && e.Kind == ddg.DepFlow {
			// t[to] + ii·d − t[from] <= maxLife  ⇔  t[from] >= t[to] + ii·d − maxLife
			s.cons = append(s.cons, cons{from: e.To, to: e.From, w: ii*e.Distance - maxLife})
		}
	}
	s.outCons = make([][]int, n)
	s.inCons = make([][]int, n)
	for ci, c := range s.cons {
		s.outCons[c.from] = append(s.outCons[c.from], ci)
		s.inCons[c.to] = append(s.inCons[c.to], ci)
	}
	// Reserve the loop-closing branch in the last kernel row, exactly as
	// the heuristic's reservation table does.
	s.rows[ii-1].perPort[machine.PortB]++
	s.rows[ii-1].total++
	return s
}

// initBounds computes est by longest-path relaxation (Bellman-Ford over
// the difference constraints), widens each window to est + n·II, and
// tightens lst backward. It reports false when the constraint graph has
// a positive-weight cycle or a window empties — both proofs of
// infeasibility for this constraint system.
func (s *solver) initBounds() bool {
	for pass := 0; pass <= s.n; pass++ {
		changed := false
		for _, c := range s.cons {
			if v := s.lo[c.from] + c.w; v > s.lo[c.to] {
				s.lo[c.to] = v
				changed = true
			}
		}
		if !changed {
			break
		}
		if pass == s.n {
			return false // positive cycle: II (or lifetime cap) infeasible
		}
	}
	for i := 0; i < s.n; i++ {
		s.hi[i] = s.lo[i] + s.n*s.ii
	}
	for pass := 0; pass <= s.n; pass++ {
		changed := false
		for _, c := range s.cons {
			if v := s.hi[c.to] - c.w; v < s.hi[c.from] {
				s.hi[c.from] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := 0; i < s.n; i++ {
		if s.lo[i] > s.hi[i] {
			return false
		}
	}
	return true
}

// portOptions writes the ports op v could occupy at time t into buf and
// returns how many there are, honoring current row occupancy. A-type
// operations prefer an I unit and fall back to M, matching the
// heuristic's preference so exact schedules look familiar.
func (s *solver) portOptions(v, t int, buf *[2]machine.Port) int {
	r := &s.rows[t%s.ii]
	if r.total >= s.m.IssueWidth {
		return 0
	}
	port, aType := s.m.PortOf(s.g.Loop.Body[v].Op)
	k := 0
	if aType {
		if r.perPort[machine.PortI] < s.m.Units[machine.PortI] {
			buf[k] = machine.PortI
			k++
		}
		if r.perPort[machine.PortM] < s.m.Units[machine.PortM] {
			buf[k] = machine.PortM
			k++
		}
		return k
	}
	if r.perPort[port] < s.m.Units[port] {
		buf[k] = port
		k++
	}
	return k
}

// pickVar returns the unassigned variable with the fewest feasible
// placements (first-fail ordering) and that count, capped at
// pickCountCap. count == 0 proves the current node is a dead end.
func (s *solver) pickVar() (v, count int) {
	v, count = -1, pickCountCap+1
	var buf [2]machine.Port
	for i := 0; i < s.n; i++ {
		if s.assigned[i] {
			continue
		}
		c := 0
		for t := s.lo[i]; t <= s.hi[i] && c < pickCountCap; t++ {
			if s.portOptions(i, t, &buf) > 0 {
				c++
			}
		}
		if c < count {
			v, count = i, c
			if count == 0 {
				return
			}
		}
	}
	return
}

func (s *solver) setLo(v, val int) {
	s.trail = append(s.trail, trailEntry{v: v, lo: s.lo[v], hi: s.hi[v]})
	s.lo[v] = val
}

func (s *solver) setHi(v, val int) {
	s.trail = append(s.trail, trailEntry{v: v, lo: s.lo[v], hi: s.hi[v]})
	s.hi[v] = val
}

func (s *solver) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := s.trail[i]
		s.lo[e.v] = e.lo
		s.hi[e.v] = e.hi
	}
	s.trail = s.trail[:mark]
}

// propagate restores bounds consistency after v's window changed,
// sweeping the difference constraints to a fixpoint. It reports false
// when some window empties.
func (s *solver) propagate(v int) bool {
	queue := []int{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, ci := range s.outCons[x] {
			c := s.cons[ci]
			if nv := s.lo[c.from] + c.w; nv > s.lo[c.to] {
				s.setLo(c.to, nv)
				if s.lo[c.to] > s.hi[c.to] {
					return false
				}
				queue = append(queue, c.to)
			}
		}
		for _, ci := range s.inCons[x] {
			c := s.cons[ci]
			if nv := s.hi[c.to] - c.w; nv < s.hi[c.from] {
				s.setHi(c.from, nv)
				if s.lo[c.from] > s.hi[c.from] {
					return false
				}
				queue = append(queue, c.from)
			}
		}
	}
	return true
}

// place assigns op v to (t, p): pins its window, occupies the row, and
// propagates. It reports false when propagation empties a window.
func (s *solver) place(v, t int, p machine.Port) bool {
	s.setLo(v, t)
	s.setHi(v, t)
	s.time[v] = t
	s.port[v] = p
	s.assigned[v] = true
	s.unassigned--
	r := &s.rows[t%s.ii]
	r.perPort[p]++
	r.total++
	return s.propagate(v)
}

// unplace reverts place.
func (s *solver) unplace(v, mark int) {
	r := &s.rows[s.time[v]%s.ii]
	r.perPort[s.port[v]]--
	r.total--
	s.assigned[v] = false
	s.unassigned++
	s.undoTo(mark)
}

// stop reports whether the node budget or deadline is exhausted; once
// true the whole solve unwinds as StatusUnknown.
func (s *solver) stop() bool {
	if s.stopped {
		return true
	}
	if *s.nodes >= s.maxNodes {
		s.stopped = true
		return true
	}
	if *s.nodes&0xff == 0 && s.ctx.Err() != nil {
		s.stopped, s.deadline = true, true
		return true
	}
	return false
}

// dfs is the branch-and-bound core: pick the most constrained op, try
// its feasible (time, port) placements in ascending time order, and
// recurse. On StatusFeasible the assignment is left in place for the
// caller to read out of s.time/s.port.
func (s *solver) dfs() Status {
	if s.unassigned == 0 {
		return StatusFeasible
	}
	if s.stop() {
		return StatusUnknown
	}
	v, count := s.pickVar()
	if count == 0 {
		return StatusInfeasible
	}
	var buf [2]machine.Port
	for t := s.lo[v]; t <= s.hi[v]; t++ {
		k := s.portOptions(v, t, &buf)
		for pi := 0; pi < k; pi++ {
			(*s.nodes)++
			mark := len(s.trail)
			if s.place(v, t, buf[pi]) {
				st := s.dfs()
				if st == StatusFeasible {
					return st
				}
				s.unplace(v, mark)
				if st == StatusUnknown {
					return st
				}
			} else {
				s.unplace(v, mark)
			}
			if s.stop() {
				return StatusUnknown
			}
		}
	}
	return StatusInfeasible
}

// solveOnce runs one constraint system to a verdict. On StatusFeasible
// it returns the schedule; nodes accumulates across calls.
func solveOnce(ctx context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, maxLife int, nodes *int64, maxNodes int64) (*modsched.Schedule, Status, bool) {
	s := newSolver(ctx, m, g, ii, latf, maxLife, nodes, maxNodes)
	if !s.initBounds() {
		return nil, StatusInfeasible, false
	}
	st := s.dfs()
	if st != StatusFeasible {
		return nil, st, s.deadline
	}
	out := &modsched.Schedule{
		II:   ii,
		Time: append([]int(nil), s.time...),
		Port: append([]machine.Port(nil), s.port...),
	}
	for _, t := range out.Time {
		if stg := t/ii + 1; stg > out.Stages {
			out.Stages = stg
		}
	}
	return out, StatusFeasible, false
}

// SolveMin finds a schedule at the given II and then tightens the
// maximum register lifetime: it re-solves with the lifetime capped one
// below the best found until the cap is proven infeasible or the node
// budget runs out. The feasibility verdict always refers to the
// uncapped problem; only LifeProven weakens when tightening is cut
// short.
func SolveMin(ctx context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, lim Limits) (*modsched.Schedule, Status, Stats) {
	var used int64
	stats := Stats{MaxLife: -1}
	best, st, deadline := solveOnce(ctx, m, g, ii, latf, -1, &used, lim.MaxNodes)
	stats.Nodes = used
	if st != StatusFeasible {
		if st == StatusUnknown {
			stats.Reason = "node-budget"
			if deadline {
				stats.Reason = "deadline"
			}
		}
		return nil, st, stats
	}
	life := MaxLifetime(g, best)
	stats.MaxLife = life
	for life > 0 && used < lim.MaxNodes && ctx.Err() == nil {
		s2, st2, _ := solveOnce(ctx, m, g, ii, latf, life-1, &used, lim.MaxNodes)
		if st2 != StatusFeasible {
			stats.LifeProven = st2 == StatusInfeasible
			break
		}
		best = s2
		life = MaxLifetime(g, s2)
		stats.MaxLife = life
	}
	if life == 0 {
		stats.LifeProven = true
	}
	stats.Nodes = used
	best.Attempts = int(used)
	return best, StatusFeasible, stats
}
