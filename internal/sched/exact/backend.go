package exact

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/sched"
)

// scheduler is the "exact" backend: branch-and-bound per candidate II,
// handing individual attempts to the heuristic when the loop exceeds
// the size budget or a solve comes back undecided. It is created fresh
// per compilation so fellBack can void the optimality proof.
type scheduler struct {
	lim      Limits
	fellBack bool
	// minFeasible is the lowest II any attempt scheduled successfully
	// (-1 until one does). If the winner sits above it, a lower II was
	// schedulable but rejected downstream (register allocation), so the
	// winner is not schedule-II-optimal and the proof is withheld.
	minFeasible int
}

// New returns a fresh exact backend with the default size budget.
func New() sched.Scheduler { return &scheduler{lim: DefaultLimits(), minFeasible: -1} }

// NewWithLimits returns a fresh exact backend with a custom budget
// (tests shrink it to force fallbacks).
func NewWithLimits(lim Limits) sched.Scheduler { return &scheduler{lim: lim, minFeasible: -1} }

func (s *scheduler) Name() string { return sched.BackendExact }

// heuristicAtII delegates one fixed-II attempt to the production
// scheduler, trace events and all.
func heuristicAtII(req *sched.Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	return modsched.ScheduleAtII(req.Model, req.Graph, ii, latf, modsched.Options{BudgetRatio: req.BudgetRatio, Trace: tr})
}

// ScheduleAtII solves the loop exactly at one II. Over-budget loops and
// undecided solves fall back to the heuristic (with a trace event) —
// a fallback is never an error, but it voids the II-optimality proof.
// A canceled context returns nil, false so the search loop can exit.
func (s *scheduler) ScheduleAtII(ctx context.Context, req *sched.Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	reason := ""
	switch {
	case len(req.Loop.Body) > s.lim.MaxBody:
		reason = "body-size"
	case ii > s.lim.MaxII:
		reason = "ii-budget"
	}
	if reason != "" {
		s.fellBack = true
		if tr.On() {
			tr.Emit(obs.ExactFallbackEvent{II: ii, Reason: reason})
		}
		sol, ok := heuristicAtII(req, ii, latf, tr)
		s.noteFeasible(ii, ok)
		return sol, ok
	}
	sol, st, stats := SolveMin(ctx, req.Model, req.Graph, ii, latf, s.lim)
	if tr.On() {
		tr.Emit(obs.ExactEvent{
			II: ii, Status: st.String(), Nodes: stats.Nodes,
			MaxLife: stats.MaxLife, LifeProven: stats.LifeProven,
		})
	}
	switch st {
	case StatusFeasible:
		s.noteFeasible(ii, true)
		return sol, true
	case StatusInfeasible:
		return nil, false
	default: // StatusUnknown
		s.fellBack = true
		if ctx.Err() != nil {
			return nil, false // canceled: let the search loop observe ctx
		}
		if tr.On() {
			tr.Emit(obs.ExactFallbackEvent{II: ii, Reason: stats.Reason})
		}
		sol, ok := heuristicAtII(req, ii, latf, tr)
		s.noteFeasible(ii, ok)
		return sol, ok
	}
}

func (s *scheduler) noteFeasible(ii int, ok bool) {
	if ok && (s.minFeasible < 0 || ii < s.minFeasible) {
		s.minFeasible = ii
	}
}

// Search runs the sequential II search. The winner is proven
// II-optimal when no attempt at a lower II fell back to the heuristic
// (every lower II was then *proven* infeasible) and no lower II was
// schedulable-but-rejected by register allocation.
func (s *scheduler) Search(ctx context.Context, req *sched.Request, tr *obs.Trace, finish sched.Finisher) sched.Result {
	s.fellBack, s.minFeasible = false, -1
	r := sched.SequentialSearch(s, ctx, req, tr, finish)
	if r.Found && !s.fellBack && s.minFeasible == r.II {
		r.Proven = true
	}
	return r
}
