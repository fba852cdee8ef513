// Package ddg builds the cyclic data-dependence graph of an if-converted
// loop body and provides the analyses modulo scheduling needs: recurrence
// cycle enumeration, Recurrence-MII computation, and per-node height/slack.
//
// Because pipelined loops use rotating registers, a value that crosses
// kernel iterations is renamed by hardware rotation; cross-iteration
// register anti- and output-dependences therefore do not constrain the
// schedule and are not represented. Each virtual register must have exactly
// one definition in the body (the builder enforces this), which the
// rotating-register code generator relies on.
package ddg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ltsp/internal/ir"
)

// DepKind classifies a dependence edge.
type DepKind uint8

const (
	// DepFlow is a register read-after-write dependence.
	DepFlow DepKind = iota
	// DepMem is a memory ordering dependence declared by the front end.
	DepMem
)

// String names the dependence kind.
func (k DepKind) String() string {
	if k == DepMem {
		return "mem"
	}
	return "flow"
}

// Edge is a dependence from instruction From to instruction To. Distance is
// the iteration distance (omega): 0 for intra-iteration dependences, >= 1
// for loop-carried ones. Latency gives the minimum separation in cycles for
// a fixed-latency producer; for loads the effective latency is obtained
// through a LatencyFn at query time, so the same graph serves both the
// base-latency Recurrence-II computation and expected-latency scheduling.
type Edge struct {
	From, To int
	Distance int
	Kind     DepKind
	// FixedLatency is the latency for non-load producers and memory edges.
	// For edges whose producer result is a load's data destination,
	// LoadData is true and the latency comes from the LatencyFn.
	FixedLatency int
	// LoadData marks edges carrying a load's data result.
	LoadData bool
}

// ErrUndefinedRead is wrapped by Build's error when the body reads a
// virtual register that nothing defines or initializes.
var ErrUndefinedRead = errors.New("never defined or initialized")

// LatencyFn returns the scheduling latency of a load's data result.
// Package core supplies functions that answer per the critical/non-critical
// classification and HLO hints.
type LatencyFn func(load *ir.Instr) int

// Graph is the dependence graph over a loop body; node i is Body[i].
//
// Recurrence-cycle enumeration is memoized: the first Cycles (or RecMII)
// call enumerates once and every later query — including the per-latency-
// policy re-evaluations of the II search and the load classification —
// reuses the cached cycles with their precomputed distance and fixed-
// latency sums. The memoization is guarded by a sync.Once, so concurrent
// readers share one enumeration safely. The graph must not be mutated
// after the first analysis call.
type Graph struct {
	Loop  *ir.Loop
	Edges []Edge
	// Succ[i] / Pred[i] list edge indices leaving / entering node i.
	Succ, Pred [][]int

	// nums numbers the loop's registers; defOf[k] is the instruction
	// that writes register k and inPlace[k] the one that updates it in
	// place, -1 for none. Build makes all three fresh, so they may
	// outlive Release.
	nums           *ir.Numbering
	defOf, inPlace []int

	cyclesOnce      sync.Once
	cyclesDone      atomic.Bool
	cycles          []Cycle
	cyclesTruncated bool
}

// Latency returns the effective latency of edge e under loads' latency
// policy latf.
func (g *Graph) Latency(e *Edge, latf LatencyFn) int {
	if e.LoadData {
		return latf(g.Loop.Body[e.From])
	}
	return e.FixedLatency
}

// nonLoadLatency is the result latency table for non-load producers.
// It mirrors machine.Latency but lives here so ddg does not import machine
// (the machine model depends only on ir).
func nonLoadLatency(op ir.Op) int {
	switch op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMA, ir.OpMul, ir.OpSetF:
		return 4
	case ir.OpGetF:
		return 2
	default:
		return 1
	}
}

// graphPool recycles Graph structs with their edge list and adjacency
// arenas between compiles. A graph is only returned to the pool through
// Release, which its owner calls after the last analysis that reads it.
var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// newGraph takes a Graph from the pool and resizes its arenas for n
// nodes, truncating (not freeing) the per-node adjacency lists so their
// backing arrays are reused by the upcoming Build.
func newGraph(l *ir.Loop, n int) *Graph {
	g := graphPool.Get().(*Graph)
	g.Loop = l
	g.Edges = g.Edges[:0]
	if cap(g.Succ) >= n && cap(g.Pred) >= n {
		g.Succ = g.Succ[:n]
		g.Pred = g.Pred[:n]
		for i := 0; i < n; i++ {
			g.Succ[i] = g.Succ[i][:0]
			g.Pred[i] = g.Pred[i][:0]
		}
	} else {
		g.Succ = make([][]int, n)
		g.Pred = make([][]int, n)
	}
	g.cyclesOnce = sync.Once{}
	g.cyclesDone.Store(false)
	g.cycles = nil
	g.cyclesTruncated = false
	return g
}

// Release hands the graph's arenas back to the build pool. Only the
// graph's owner may call it, strictly after the last analysis touching g
// has finished. The memoized cycles are dropped, not recycled: emitted
// decision traces may alias their node lists. Nil-safe; g must not be
// used afterwards.
func (g *Graph) Release() {
	if g == nil {
		return
	}
	g.Loop = nil
	g.nums, g.defOf, g.inPlace = nil, nil, nil
	g.cycles = nil
	graphPool.Put(g)
}

// Build constructs the dependence graph of the loop. It returns an error if
// a virtual register has more than one definition in the body (rotation
// renaming requires single definitions) or if an instruction reads a
// virtual register that is never defined and never initialized.
//
// The returned graph draws its arenas from an internal pool; callers that
// compile at high rate should Release it when done (leaking it to the GC
// is safe, just slower).
func Build(l *ir.Loop) (*Graph, error) {
	n := len(l.Body)
	g := newGraph(l, n)

	nums := l.NumberRegs()
	nr := nums.Len()
	tables := make([]int, 2*nr)
	defOf, inPlace := tables[:nr], tables[nr:]
	for k := range tables {
		tables[k] = -1
	}
	for i := range l.Body {
		for _, d := range nums.Defs(i) {
			if d < 0 {
				continue
			}
			if prev := defOf[d]; prev >= 0 {
				g.Release()
				return nil, fmt.Errorf("ddg: %s: register %s defined by both body[%d] and body[%d]",
					l.Name, nums.Regs[d], prev, i)
			}
			defOf[d] = i
		}
	}
	inits := make([]bool, nr)
	for k := range l.Setup {
		if r := nums.Setup(k); r >= 0 {
			inits[r] = true
		}
	}

	addEdge := func(e Edge) {
		idx := len(g.Edges)
		g.Edges = append(g.Edges, e)
		g.Succ[e.From] = append(g.Succ[e.From], idx)
		g.Pred[e.To] = append(g.Pred[e.To], idx)
	}

	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u < 0 {
				continue
			}
			// A physical register used without a def in the body is a
			// loop-invariant input (e.g. r0); skip.
			d := defOf[u]
			if d < 0 {
				if r := nums.Regs[u]; r.Virtual && !inits[u] {
					g.Release()
					return nil, fmt.Errorf("ddg: %s: body[%d] reads %s which is %w",
						l.Name, i, r, ErrUndefinedRead)
				}
				continue
			}
			dist := 0
			if d >= i {
				// Def appears at or after the use in program order: the use
				// reads the previous iteration's value. d == i happens for
				// post-incremented base registers (the instruction both
				// reads and writes the base).
				dist = 1
			}
			def := l.Body[d]
			e := Edge{From: d, To: i, Distance: dist, Kind: DepFlow}
			if r := nums.Regs[u]; def.Op.IsLoad() && r == def.Dsts[0] {
				e.LoadData = true
			} else if def.Op.IsMem() && r == def.BaseReg() {
				// Post-increment result: produced by the M-unit address
				// adder in one cycle.
				e.FixedLatency = 1
			} else {
				e.FixedLatency = nonLoadLatency(def.Op)
			}
			addEdge(e)
		}
	}

	// In-place registers: a definition that reads its own previous value
	// as a *data* source (post-incremented address bases, accumulators)
	// cannot be renamed by rotation and stays in a static register in the
	// kernel. Any *other* reader of such a register must therefore read
	// before the next update: add an anti-dependence reader -> definer
	// with distance 1. (A self-reference through the qualifying predicate
	// — the while-loop validity chain — is not in-place: it rotates.)
	for i, in := range l.Body {
		srcs := nums.Uses(i)[:len(in.Srcs)]
		for _, d := range nums.Defs(i) {
			if d >= 0 && slices.Contains(srcs, d) {
				inPlace[d] = i
			}
		}
	}
	g.nums, g.defOf, g.inPlace = nums, defOf, inPlace
	for i := range l.Body {
		for _, u := range nums.Uses(i) {
			if u >= 0 && inPlace[u] >= 0 && inPlace[u] != i {
				addEdge(Edge{From: i, To: inPlace[u], Distance: 1, Kind: DepFlow, FixedLatency: 0})
			}
		}
	}

	for _, d := range l.MemDeps {
		addEdge(Edge{From: d.From, To: d.To, Distance: d.Distance,
			Kind: DepMem, FixedLatency: d.Latency})
	}
	return g, nil
}

// Numbering returns the dense numbering of the loop's registers that
// indexes DefSites and InPlaceRegs. It is shared: callers must not
// modify it.
func (g *Graph) Numbering() *ir.Numbering { return g.nums }

// DefSites returns, for every register number, the body instruction
// that writes the register, or -1. The slice is shared: callers must not
// modify it.
func (g *Graph) DefSites() []int { return g.defOf }

// InPlaceRegs returns, for every register number, the body instruction
// that updates the register in place (it reads the register's previous
// value as a data source), or -1. These must be allocated to static
// registers by the rotating allocator. Self-references through the
// qualifying predicate only (the while-loop validity chain) do not
// count: they rotate. The slice is shared: callers must not modify it.
func (g *Graph) InPlaceRegs() []int { return g.inPlace }

// Cycle is one elementary recurrence cycle: the edge indices forming it.
type Cycle struct {
	EdgeIdx []int
	// Nodes are the instruction IDs on the cycle, in traversal order.
	Nodes []int
	// DistSum is the total iteration distance around the cycle (>= 1).
	DistSum int

	// Cached decomposition of the cycle's latency sum: fixedSum is the
	// total latency of the non-LoadData edges (independent of any latency
	// policy) and loadNodes lists the producer of each LoadData edge on the
	// cycle, so LatencySum under a new policy is one latf call per load
	// instead of a walk over every edge. Filled by Graph.Cycles; sumsCached
	// distinguishes a real zero from an uncached literal (tests build Cycle
	// values directly).
	fixedSum   int
	loadNodes  []int
	sumsCached bool
}

// cacheSums precomputes the policy-independent part of the latency sum.
func (c *Cycle) cacheSums(g *Graph) {
	c.fixedSum, c.loadNodes = 0, nil
	for _, ei := range c.EdgeIdx {
		e := &g.Edges[ei]
		if e.LoadData {
			c.loadNodes = append(c.loadNodes, e.From)
		} else {
			c.fixedSum += e.FixedLatency
		}
	}
	c.sumsCached = true
}

// LatencySum returns the total latency around the cycle under latf. For
// cycles produced by Graph.Cycles this is O(loads on the cycle): the fixed
// part is precomputed and only the policy-dependent load latencies are
// re-evaluated.
func (c *Cycle) LatencySum(g *Graph, latf LatencyFn) int {
	if c.sumsCached {
		sum := c.fixedSum
		for _, n := range c.loadNodes {
			sum += latf(g.Loop.Body[n])
		}
		return sum
	}
	sum := 0
	for _, ei := range c.EdgeIdx {
		sum += g.Latency(&g.Edges[ei], latf)
	}
	return sum
}

// MinII returns the II lower bound this cycle imposes under latf:
// ceil(latency sum / distance sum).
func (c *Cycle) MinII(g *Graph, latf LatencyFn) int {
	return ceilDiv(c.LatencySum(g, latf), c.DistSum)
}

// Loads returns the load instructions on the cycle.
func (c *Cycle) Loads(g *Graph) []*ir.Instr {
	var out []*ir.Instr
	for _, n := range c.Nodes {
		if in := g.Loop.Body[n]; in.Op.IsLoad() {
			out = append(out, in)
		}
	}
	return out
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// MaxCycles caps recurrence-cycle enumeration; loop bodies are small, so
// hitting the cap indicates a pathological input. Callers can detect
// truncation by comparing len(result) against it.
const MaxCycles = 20000

// Cycles enumerates the elementary cycles of the graph (Johnson's
// algorithm restricted to strongly connected components), up to MaxCycles.
// Every returned cycle has DistSum >= 1: an elementary cycle with zero
// total distance would be an intra-iteration dependence cycle, which Build
// cannot produce from a well-formed loop.
//
// The enumeration runs once per graph; the returned slice is shared and
// must be treated as read-only by callers.
func (g *Graph) Cycles() []Cycle {
	g.cyclesOnce.Do(func() {
		g.cycles = g.enumCycles()
		g.cyclesTruncated = len(g.cycles) >= MaxCycles
		for i := range g.cycles {
			g.cycles[i].cacheSums(g)
		}
		g.cyclesDone.Store(true)
	})
	return g.cycles
}

func (g *Graph) enumCycles() []Cycle {
	n := len(g.Loop.Body)
	var result []Cycle

	blocked := make([]bool, n)
	blockMap := make([][]int, n)
	var stackNodes []int
	var stackEdges []int

	var adj [][]int // edge indices, filtered to current subgraph

	var unblock func(v int)
	unblock = func(v int) {
		blocked[v] = false
		for _, w := range blockMap[v] {
			if blocked[w] {
				unblock(w)
			}
		}
		blockMap[v] = blockMap[v][:0]
	}

	var circuit func(v, s int) bool
	circuit = func(v, s int) bool {
		found := false
		stackNodes = append(stackNodes, v)
		blocked[v] = true
		for _, ei := range adj[v] {
			w := g.Edges[ei].To
			if w < s {
				continue
			}
			if w == s {
				if len(result) < MaxCycles {
					c := Cycle{
						Nodes:   append([]int(nil), stackNodes...),
						EdgeIdx: append(append([]int(nil), stackEdges...), ei),
					}
					for _, e := range c.EdgeIdx {
						c.DistSum += g.Edges[e].Distance
					}
					result = append(result, c)
				}
				found = true
			} else if !blocked[w] {
				stackEdges = append(stackEdges, ei)
				if circuit(w, s) {
					found = true
				}
				stackEdges = stackEdges[:len(stackEdges)-1]
			}
		}
		if found {
			unblock(v)
		} else {
			for _, ei := range adj[v] {
				w := g.Edges[ei].To
				if w < s {
					continue
				}
				already := false
				for _, x := range blockMap[w] {
					if x == v {
						already = true
						break
					}
				}
				if !already {
					blockMap[w] = append(blockMap[w], v)
				}
			}
		}
		stackNodes = stackNodes[:len(stackNodes)-1]
		return found
	}

	adj = make([][]int, n)
	for i := range g.Edges {
		adj[g.Edges[i].From] = append(adj[g.Edges[i].From], i)
	}
	for s := 0; s < n && len(result) < MaxCycles; s++ {
		for i := range blocked {
			blocked[i] = false
			blockMap[i] = blockMap[i][:0]
		}
		circuit(s, s)
	}
	// Deterministic order: by first node, then length.
	sort.SliceStable(result, func(i, j int) bool {
		a, b := result[i], result[j]
		if a.Nodes[0] != b.Nodes[0] {
			return a.Nodes[0] < b.Nodes[0]
		}
		return len(a.Nodes) < len(b.Nodes)
	})
	return result
}

// RecMII computes the Recurrence MII under the given load-latency policy:
// the smallest II such that no dependence cycle has latency sum exceeding
// II times its distance sum. A loop with no recurrence cycles has RecMII 1.
//
// When the memoized cycle enumeration has already run (the latency-
// tolerant classification enumerates once per loop) and is complete, RecMII
// is the maximum of ceil(latency sum / distance sum) over the elementary
// cycles — an O(cycles) re-evaluation per latency policy over the cached
// sums (the maximum cycle ratio is attained on an elementary cycle, and
// ceil is monotone, so elementary cycles suffice). Otherwise it uses the
// exact binary search over II with positive-cycle detection (Bellman-Ford
// on edge weights lat - II*dist), which needs no enumeration — so the
// baseline compiler, which never classifies loads, never pays for an
// enumeration it would not otherwise run. Both paths compute the same
// value (pinned by test).
func (g *Graph) RecMII(latf LatencyFn) int {
	if !g.cyclesDone.Load() || g.cyclesTruncated {
		return g.recMIIBellmanFord(latf)
	}
	best := 1
	for i := range g.cycles {
		if v := g.cycles[i].MinII(g, latf); v > best {
			best = v
		}
	}
	return best
}

// recMIIBellmanFord is the enumeration-free exact fallback (and the oracle
// the tests cross-check the cycle-based fast path against).
func (g *Graph) recMIIBellmanFord(latf LatencyFn) int {
	lo, hi := 1, 1
	for i := range g.Edges {
		l := g.Latency(&g.Edges[i], latf)
		if l > hi {
			hi = l
		}
	}
	// Upper bound: sum of all latencies (a cycle cannot exceed it).
	sum := 0
	for i := range g.Edges {
		sum += g.Latency(&g.Edges[i], latf)
	}
	if sum > hi {
		hi = sum
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if g.hasPositiveCycle(mid, latf) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasPositiveCycle reports whether some cycle has sum(lat - II*dist) > 0,
// i.e. the candidate II is infeasible.
func (g *Graph) hasPositiveCycle(ii int, latf LatencyFn) bool {
	n := len(g.Loop.Body)
	dist := make([]float64, n) // longest path estimates; start at 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := range g.Edges {
			e := &g.Edges[i]
			w := float64(g.Latency(e, latf) - ii*e.Distance)
			if dist[e.From]+w > dist[e.To] {
				dist[e.To] = dist[e.From] + w
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// Still relaxing after n passes: positive cycle exists.
	for i := range g.Edges {
		e := &g.Edges[i]
		w := float64(g.Latency(e, latf) - ii*e.Distance)
		if dist[e.From]+w > dist[e.To] {
			return true
		}
	}
	return false
}

// Heights returns per-node scheduling priorities: the longest latency path
// from each node to any graph sink under latf, counting loop-carried edges
// at lat - II*dist. Higher means more urgent.
func (g *Graph) Heights(ii int, latf LatencyFn) []int {
	h := make([]int, len(g.Loop.Body))
	g.HeightsInto(h, ii, latf)
	return h
}

// HeightsInto is Heights writing into h, which must hold one entry per
// body instruction; the scheduler passes a pooled buffer.
func (g *Graph) HeightsInto(h []int, ii int, latf LatencyFn) {
	n := len(g.Loop.Body)
	h = h[:n]
	clear(h)
	// Iterate to fixed point; bounded because positive cycles are excluded
	// for feasible II (callers pass II >= RecMII). Guard with a pass cap.
	for pass := 0; pass < n+2; pass++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			for _, ei := range g.Succ[i] {
				e := &g.Edges[ei]
				v := h[e.To] + g.Latency(e, latf) - ii*e.Distance
				if v > h[i] {
					h[i] = v
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// Slack computes, for each node, how many cycles its completion can slip
// without lengthening the critical path at the given II. Nodes on critical
// recurrence cycles get zero slack. This mirrors the paper's notion of
// loads "with sufficient slack in the cyclic data dependence graph".
func (g *Graph) Slack(ii int, latf LatencyFn) []int {
	n := len(g.Loop.Body)
	// Earliest start via longest path from sources.
	early := make([]int, n)
	for pass := 0; pass < n+2; pass++ {
		changed := false
		for i := 0; i < n; i++ {
			for _, ei := range g.Pred[i] {
				e := &g.Edges[ei]
				v := early[e.From] + g.Latency(e, latf) - ii*e.Distance
				if v > early[i] {
					early[i] = v
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	heights := g.Heights(ii, latf)
	maxPath := 0
	for i := 0; i < n; i++ {
		if early[i]+heights[i] > maxPath {
			maxPath = early[i] + heights[i]
		}
	}
	slack := make([]int, n)
	for i := 0; i < n; i++ {
		s := maxPath - early[i] - heights[i]
		if s < 0 {
			s = 0
		}
		if s > math.MaxInt32 {
			s = math.MaxInt32
		}
		slack[i] = s
	}
	return slack
}
