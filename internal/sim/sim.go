// Package sim is the cycle-accurate timing simulator for compiled loop
// programs on the in-order EPIC target: issue groups stall as a unit on
// unavailable source registers (stall-on-use scoreboarding over the
// physical, rotation-renamed register files), memory requests that pass the
// L1 occupy the OzQ and stall the pipeline when it is full, and optional
// L2 bank conflicts add latency to same-cycle same-bank accesses.
//
// Every simulated cycle is accounted to exactly one of the six
// microarchitectural states of the paper's Fig. 10: unstalled execution,
// BE_EXE_BUBBLE (data stalls), BE_L1D_FPU_BUBBLE (OzQ-full stalls),
// BE_RSE_BUBBLE (register-stack engine traffic, synthesized from the
// loop's stacked-register footprint), BE_FLUSH_BUBBLE (loop-exit branch
// flush) and BACK_END_BUBBLE.FE (front-end refill at loop entry).
package sim

import (
	"fmt"
	"io"
	"slices"

	"ltsp/internal/cache"
	"ltsp/internal/interp"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
)

// Config parameterizes a simulation.
type Config struct {
	// Model is the processor model (ports, latencies, OzQ capacity).
	Model *machine.Model
	// Cache is the hierarchy geometry.
	Cache cache.Config
	// BankConflicts enables the L2 bank-conflict model.
	BankConflicts bool
	// FEOverhead is charged once per loop execution at entry (front-end
	// refill after the branch into the loop).
	FEOverhead int
	// FlushOverhead is charged once per loop execution at exit (the final
	// mispredicted back edge flushes the in-order pipeline).
	FlushOverhead int
	// RSECyclesPerExec is charged once per loop execution as register
	// stack engine traffic; callers derive it from the loop's allocated
	// stacked registers (see experiments).
	RSECyclesPerExec int64
	// Trace, when non-nil, receives a line per issue group: the absolute
	// cycle, any stall with its cause, and the instructions issued. It is
	// a debugging aid; tracing long runs is expensive.
	Trace io.Writer
	// Timeline, when non-nil, collects a Chrome trace-event (catapult)
	// timeline: one complete event per issued instruction (tid = issue
	// lane) and one per stall interval (the reserved stall lanes), with
	// one simulated cycle mapped to one microsecond. See obs.Timeline.
	Timeline *obs.Timeline
}

// Timeline lanes (catapult tid values): stalls occupy the two reserved
// lanes so chrome://tracing shows them as their own rows above the issue
// lanes, which start at TIDLane0.
const (
	// TIDDataStall carries ExeBubble (stall-on-use) intervals.
	TIDDataStall = 0
	// TIDOzQStall carries L1DFPUBubble (OzQ-full) intervals.
	TIDOzQStall = 1
	// TIDLane0 is the first instruction issue lane.
	TIDLane0 = 2
)

// DefaultConfig returns a simulation configuration for the paper's target.
func DefaultConfig() Config {
	return Config{
		Model:         machine.Itanium2(),
		Cache:         cache.DefaultItanium2(),
		BankConflicts: true,
		FEOverhead:    6,
		FlushOverhead: 6,
	}
}

// Accounting decomposes total cycles into the Fig. 10 states.
type Accounting struct {
	Total     int64
	Unstalled int64
	// ExeBubble is BE_EXE_BUBBLE.ALL: stall-on-use data stalls.
	ExeBubble int64
	// L1DFPUBubble is BE_L1D_FPU_BUBBLE.ALL: OzQ-full stalls.
	L1DFPUBubble int64
	// RSEBubble is BE_RSE_BUBBLE.ALL.
	RSEBubble int64
	// FlushBubble is BE_FLUSH_BUBBLE.ALL.
	FlushBubble int64
	// FEBubble is BACK_END_BUBBLE.FE.
	FEBubble int64
}

// Add accumulates another accounting into a.
func (a *Accounting) Add(b Accounting) {
	a.Total += b.Total
	a.Unstalled += b.Unstalled
	a.ExeBubble += b.ExeBubble
	a.L1DFPUBubble += b.L1DFPUBubble
	a.RSEBubble += b.RSEBubble
	a.FlushBubble += b.FlushBubble
	a.FEBubble += b.FEBubble
}

// Bubbles returns the sum of all stall components.
func (a *Accounting) Bubbles() int64 {
	return a.ExeBubble + a.L1DFPUBubble + a.RSEBubble + a.FlushBubble + a.FEBubble
}

// Result reports one loop execution.
type Result struct {
	Cycles      int64
	Acct        Accounting
	KernelIters int64
	// Cache is a snapshot of hierarchy statistics deltas for this run.
	Cache cache.Stats
	// OzQFullStalls counts cycles lost to a full OzQ (== L1DFPUBubble).
	OzQFullStalls int64
	// OzQPeak is the maximum OzQ occupancy observed.
	OzQPeak int
	// BankConflictCount counts penalized same-cycle same-bank accesses.
	BankConflictCount int64
	// LoadsByLevel[l] counts demand loads served at hierarchy level l
	// (1-3 caches, 4 memory).
	LoadsByLevel [5]int64
	// LoadSiteLevels breaks LoadsByLevel down per load site (body
	// instruction ID) — the raw material for dynamic cache-miss sampling
	// (the paper's Sec. 6 outlook).
	LoadSiteLevels map[int]*[5]int64
	// LoadSiteLatency accumulates per load site the actual issue-to-data
	// latency in cycles (including waits on in-flight lines), alongside
	// the counts in LoadSiteLevels.
	LoadSiteLatency map[int]int64
	// LoadSiteStalls attributes ExeBubble cycles to the load site (body
	// instruction ID) whose unready result the stalled issue group was
	// waiting on — the per-PC stall table of the paper's Fig.-10 analysis.
	LoadSiteStalls map[int]int64
	// LoadSiteStallEvents counts distinct stall episodes per load site.
	// With clustering factor k, one episode shadows the k-1 misses issued
	// in its shadow, so misses/episodes estimates the realized k (Equ. 3).
	LoadSiteStallEvents map[int]int64
	// LoadSiteOzQStalls attributes L1DFPUBubble (OzQ-full) cycles to the
	// memory operation that had to wait for a queue slot.
	LoadSiteOzQStalls map[int]int64
	// State is the final architectural state (for correctness checks).
	State *interp.State
}

// Runner simulates programs against a persistent cache hierarchy, so that
// successive executions of a loop (trip-count distributions) see warm
// caches exactly as repeated invocations in a real program would. Its
// decode and per-run tables are scratch, reused from run to run.
type Runner struct {
	cfg  Config
	hier *cache.Hierarchy
	ozq  ozq
	// clock is the absolute cycle counter, persistent across Run calls so
	// that cache fill timestamps from earlier executions stay meaningful.
	clock int64
	code  interp.Code
	// regs holds, per unified register index, the cycle its value is
	// ready and the load site (code.SiteIDs index) that produced it, or
	// -1: a stall is blamed on the site behind the latest-ready source.
	regs [interp.NumRegs]regState
	// sites accumulates the per-site attribution of one run, by
	// code.SiteIDs index.
	sites []siteStats
	// on holds the qualifying predicate of each instruction of the
	// current issue group, and pending lends each run's state its
	// deferred-write buffer.
	on      []bool
	pending []interp.Write
	// bankBusy marks the L2 banks a memory request of the current issue
	// group has used (nil when bank conflicts are off).
	bankBusy []bool
}

type regState struct {
	ready int64
	site  int32
}

// siteStats is one memory op site's attribution over a run: its demand
// loads by serving level and their summed latency, the ExeBubble cycles
// and stall episodes blamed on it, and its wait for an OzQ slot.
type siteStats struct {
	levels                            [5]int64
	latency, stalls, events, ozqStall int64
}

// accessKind maps a decoded memory access to the hierarchy's.
var accessKind = [...]cache.AccessKind{
	interp.AccessLoad:       cache.Load,
	interp.AccessStore:      cache.Store,
	interp.AccessPrefetchL1: cache.PrefetchL1,
	interp.AccessPrefetchL2: cache.PrefetchL2,
}

// validate rejects what the simulator cannot model: a cache geometry the
// hierarchy cannot index, an OzQ with no slot, and negative overheads,
// which would run the clock backwards.
func (c *Config) validate() error {
	switch {
	case c.Model.OzQCapacity < 1:
		return fmt.Errorf("sim: OzQ capacity %d < 1", c.Model.OzQCapacity)
	case c.FEOverhead < 0:
		return fmt.Errorf("sim: negative FEOverhead %d", c.FEOverhead)
	case c.FlushOverhead < 0:
		return fmt.Errorf("sim: negative FlushOverhead %d", c.FlushOverhead)
	case c.RSECyclesPerExec < 0:
		return fmt.Errorf("sim: negative RSECyclesPerExec %d", c.RSECyclesPerExec)
	}
	return c.Cache.Validate()
}

// NewRunner creates a runner with a cold hierarchy. A config Run rejects
// still yields a runner; its Run reports the error.
func NewRunner(cfg Config) *Runner {
	if cfg.Model == nil {
		cfg.Model = machine.Itanium2()
	}
	return &Runner{cfg: cfg, hier: cache.New(cfg.Cache)}
}

// Hierarchy exposes the runner's cache hierarchy (tests warm or inspect
// it). The pointer is stable for the runner's life: DropCaches empties the
// same hierarchy in place.
func (r *Runner) Hierarchy() *cache.Hierarchy { return r.hier }

// DropCaches empties the hierarchy (keeping the global clock and the
// cumulative Stats), modeling the eviction a loop's data suffers from the
// rest of the program between two invocations.
func (r *Runner) DropCaches() { r.hier.Reset() }

// RunCold simulates one cold execution: it empties the caches, starts a
// tracked run on mem and runs p. repeats reports that the next cold run
// of p with the same trip count on mem would repeat this one exactly, so
// a caller may reuse res instead of simulating it: the run changed no
// page it read, and a cold run depends on nothing else a run leaves
// behind. DropCaches empties the hierarchy, and Run starts the
// scoreboard, OzQ, site tables and architectural registers afresh. What
// outlives DropCaches is the clock, the hierarchy's LRU tick and its
// cumulative Stats. Fill times are compared only with the clock and
// LRU ticks only with each other, so a run's result does not depend on
// where they start; only a Trace or Timeline shows the clock.
func (r *Runner) RunCold(p *interp.Program, trip int64, mem *interp.Memory) (res *Result, repeats bool, err error) {
	r.DropCaches()
	mem.BeginRun()
	if res, err = r.Run(p, trip, mem); err != nil {
		return nil, false, err
	}
	return res, mem.Replays(), nil
}

// Run simulates one execution of the program with the given trip count
// against mem (which may be shared across runs for warm data).
func (r *Runner) Run(p *interp.Program, trip int64, mem *interp.Memory) (*Result, error) {
	if trip < 1 {
		return nil, fmt.Errorf("sim: trip count %d < 1", trip)
	}
	if err := r.cfg.validate(); err != nil {
		return nil, err
	}
	if err := r.code.Decode(p, r.cfg.Model.Latency); err != nil {
		return nil, err
	}
	st := interp.NewStateOn(mem)
	st.Pending = r.pending
	res := &Result{State: st}
	statsBefore := r.hier.Stats
	for i := range r.regs {
		r.regs[i] = regState{site: -1}
	}
	r.sites = slices.Grow(r.sites[:0], len(r.code.SiteIDs))[:len(r.code.SiteIDs)]
	clear(r.sites)
	r.on = slices.Grow(r.on[:0], r.code.MaxGroup)[:r.code.MaxGroup]
	r.ozq = r.ozq[:0]
	if banks := r.cfg.Model.L2Banks; !r.cfg.BankConflicts || banks <= 0 {
		r.bankBusy = nil
	} else if len(r.bankBusy) != banks {
		r.bankBusy = make([]bool, banks)
	}

	start := r.clock
	r.clock += int64(r.cfg.FEOverhead)
	res.Acct.FEBubble = int64(r.cfg.FEOverhead)
	iters, err := r.code.Drive(st, trip, func(g []interp.Inst) error { return r.issue(g, st, res) })
	r.pending, st.Pending = st.Pending[:0], nil
	if err != nil {
		r.clock = start
		return nil, err
	}
	res.KernelIters = iters
	res.Acct.FlushBubble = int64(r.cfg.FlushOverhead)
	res.Acct.RSEBubble = r.cfg.RSECyclesPerExec
	r.clock += int64(r.cfg.FlushOverhead) + r.cfg.RSECyclesPerExec

	res.Cycles = r.clock - start
	res.Acct.Total = res.Cycles
	res.Acct.Unstalled = res.Cycles - res.Acct.Bubbles()
	res.Cache = diffStats(statsBefore, r.hier.Stats)
	r.siteMaps(res)
	return res, nil
}

// issue simulates one issue group at r.clock in three passes: the
// scoreboard, which stalls the whole group on any unready source of an
// enabled instruction (stall-on-use) and on every qualifying predicate;
// execution with its memory requests (OzQ admission, cache access, bank
// conflicts); and the publish, which writes each result with its ready
// cycle and producing load site.
func (r *Runner) issue(g []interp.Inst, st *interp.State, res *Result) error {
	t := r.clock
	maxReady, stallSite := t, int32(-1)
	for i := range g {
		in := &g[i]
		u, on := st.Pred(in)
		r.on[i] = on
		if u >= 0 {
			if v := r.regs[u]; v.ready > maxReady {
				maxReady, stallSite = v.ready, v.site
			}
		}
		if !on {
			continue
		}
		for _, sl := range in.Src {
			if sl.U < 0 {
				continue
			}
			if v := r.regs[st.Index(sl)]; v.ready > maxReady {
				maxReady, stallSite = v.ready, v.site
			}
		}
	}
	tl := r.cfg.Timeline
	if maxReady > t {
		d := maxReady - t
		res.Acct.ExeBubble += d
		id := -1
		if stallSite >= 0 {
			r.sites[stallSite].stalls += d
			r.sites[stallSite].events++
			id = r.code.SiteIDs[stallSite]
		}
		if tl.On() {
			tl.Complete("stall(data)", t, d, 0, TIDDataStall, map[string]any{"site": id})
		}
		if r.cfg.Trace != nil {
			fmt.Fprintf(r.cfg.Trace, "%8d  stall %d cycles (data)\n", t, d)
		}
		t = maxReady
	}
	if r.cfg.Trace != nil || tl.On() {
		r.show(g, t)
	}

	model := r.cfg.Model
	clear(r.bankBusy)
	st.Pending = st.Pending[:0]
	for i := range g {
		in := &g[i]
		first := len(st.Pending)
		addr, err := st.Step(in, r.on[i])
		if err != nil {
			return err
		}
		if !r.on[i] || in.Access == interp.NoAccess {
			continue
		}
		site := &r.sites[in.Site]
		r.ozq.drain(t)
		if len(r.ozq) >= model.OzQCapacity {
			if wait := r.ozq[0]; wait > t {
				res.Acct.L1DFPUBubble += wait - t
				res.OzQFullStalls += wait - t
				site.ozqStall += wait - t
				if tl.On() {
					tl.Complete("stall(ozq)", t, wait-t, 0, TIDOzQStall, map[string]any{"site": in.In.ID})
				}
				t = wait
			}
			r.ozq.drain(t)
		}
		cres := r.hier.Access(t, addr, in.FP, accessKind[in.Access])
		load := in.Access == interp.AccessLoad
		if load {
			// The site's latency leaves out a bank conflict's penalty.
			res.LoadsByLevel[cres.Level]++
			site.levels[cres.Level]++
			site.latency += cres.ReadyAt - t
		}
		if r.bankBusy != nil && cres.MissedL1 {
			bank := (addr >> 4) & int64(len(r.bankBusy)-1)
			if r.bankBusy[bank] {
				cres.ReadyAt += int64(model.BankConflictPenalty)
				res.BankConflictCount++
			}
			r.bankBusy[bank] = true
		}
		if cres.MissedL1 && !cres.Merged {
			r.ozq.push(cres.ReadyAt)
			res.OzQPeak = max(res.OzQPeak, len(r.ozq))
		}
		if load {
			for k := first; k < len(st.Pending); k++ {
				if st.Pending[k].Site >= 0 {
					st.Pending[k].Ready = cres.ReadyAt
				}
			}
		}
	}

	for i := range st.Pending {
		w := &st.Pending[i]
		st.Retire(w)
		if w.U == 0 {
			continue // r0
		}
		ready := w.Ready
		if w.Site < 0 {
			ready += t
		}
		r.regs[w.U] = regState{ready, w.Site}
	}
	r.clock = t + 1
	return nil
}

// show writes the group issuing at cycle t to the trace and timeline,
// marking the instructions whose predicate is off.
func (r *Runner) show(g []interp.Inst, t int64) {
	for lane := range g {
		in, on := g[lane].In, r.on[lane]
		if w := r.cfg.Trace; w != nil {
			state := "  "
			if !on {
				state = "--"
			}
			fmt.Fprintf(w, "%8d  %s %s\n", t, state, in)
		}
		if tl := r.cfg.Timeline; tl.On() {
			name := in.String()
			if !on {
				name = "-- " + name
			}
			tl.Complete(name, t, 1, 0, TIDLane0+lane, nil)
		}
	}
}

// siteMaps turns the run's site tables into the Result's per-site maps:
// a map is nil when no site has an entry, and a site has an entry only
// when it counted something.
func (r *Runner) siteMaps(res *Result) {
	var levels [][5]int64
	for k := range r.sites {
		s, id := &r.sites[k], r.code.SiteIDs[k]
		if s.levels != [5]int64{} {
			if res.LoadSiteLevels == nil {
				res.LoadSiteLevels = make(map[int]*[5]int64, len(r.sites))
				res.LoadSiteLatency = make(map[int]int64, len(r.sites))
				levels = make([][5]int64, 0, len(r.sites))
			}
			levels = append(levels, s.levels)
			res.LoadSiteLevels[id] = &levels[len(levels)-1]
			res.LoadSiteLatency[id] = s.latency
		}
		if s.events > 0 {
			if res.LoadSiteStalls == nil {
				res.LoadSiteStalls = map[int]int64{}
				res.LoadSiteStallEvents = map[int]int64{}
			}
			res.LoadSiteStalls[id] = s.stalls
			res.LoadSiteStallEvents[id] = s.events
		}
		if s.ozqStall > 0 {
			if res.LoadSiteOzQStalls == nil {
				res.LoadSiteOzQStalls = map[int]int64{}
			}
			res.LoadSiteOzQStalls[id] = s.ozqStall
		}
	}
}

// ozq holds the completion times of the in-flight memory requests as a
// binary min-heap: the earliest completion is ozq[0].
type ozq []int64

func (q *ozq) push(c int64) {
	h := append(*q, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

// drain removes the requests complete by now. A request completes after
// the cycle it issues in, or in it when the serving level has zero
// latency.
func (q *ozq) drain(now int64) {
	h := *q
	for len(h) > 0 && h[0] <= now {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	*q = h
}

func diffStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:   b.Accesses - a.Accesses,
		HitsL1:     b.HitsL1 - a.HitsL1,
		HitsL2:     b.HitsL2 - a.HitsL2,
		HitsL3:     b.HitsL3 - a.HitsL3,
		Memory:     b.Memory - a.Memory,
		Merges:     b.Merges - a.Merges,
		Prefetches: b.Prefetches - a.Prefetches,
	}
}
