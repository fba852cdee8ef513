package exact

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// Scheduler is the "exact" backend's fixed-II scheduler: branch-and-bound
// per candidate II, handing individual attempts to the heuristic when the
// loop exceeds the size budget or a solve comes back undecided. It keeps
// the proof state of one II search, so each compile builds its own.
type Scheduler struct {
	lim      Limits
	fellBack bool
	// minFeasible is the lowest II any attempt scheduled successfully
	// (-1 until one does). If the winner sits above it, a lower II was
	// schedulable but rejected downstream (register allocation), so the
	// winner is not schedule-II-optimal and the proof is withheld.
	minFeasible int
}

// New returns a Scheduler for one II search under the given budget
// (DefaultLimits in production; tests shrink it to force fallbacks).
func New(lim Limits) *Scheduler { return &Scheduler{lim: lim, minFeasible: -1} }

// ScheduleAtII solves the loop exactly at one II. Over-budget loops and
// undecided solves fall back to the heuristic (with a trace event) —
// a fallback is never an error, but it voids the II-optimality proof.
// A canceled context returns nil, false so the search loop can exit.
func (s *Scheduler) ScheduleAtII(ctx context.Context, m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	reason := ""
	switch {
	case len(g.Loop.Body) > s.lim.MaxBody:
		reason = "body-size"
	case ii > s.lim.MaxII:
		reason = "ii-budget"
	}
	if reason != "" {
		return s.fallBack(m, g, ii, latf, tr, reason)
	}
	sol, st, stats := SolveMin(ctx, m, g, ii, latf, s.lim)
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
		if ctx.Err() != nil {
			s.fellBack = true
			return nil, false // canceled: let the search loop observe ctx
		}
		return s.fallBack(m, g, ii, latf, tr, stats.Reason)
	}
}

// fallBack delegates one fixed-II attempt to the production scheduler,
// trace events and all, and voids the proof.
func (s *Scheduler) fallBack(m *machine.Model, g *ddg.Graph, ii int, latf ddg.LatencyFn, tr *obs.Trace, reason string) (*modsched.Schedule, bool) {
	s.fellBack = true
	if tr.On() {
		tr.Emit(obs.ExactFallbackEvent{II: ii, Reason: reason})
	}
	sol, ok := modsched.ScheduleAtII(m, g, ii, latf, modsched.Options{Trace: tr})
	s.noteFeasible(ii, ok)
	return sol, ok
}

func (s *Scheduler) noteFeasible(ii int, ok bool) {
	if ok && (s.minFeasible < 0 || ii < s.minFeasible) {
		s.minFeasible = ii
	}
}

// Proves reports that the search's winning II is proven optimal: no
// attempt fell back to the heuristic, so every lower II was refuted, and
// no lower II was schedulable-but-rejected by register allocation.
func (s *Scheduler) Proves(ii int) bool { return !s.fellBack && s.minFeasible == ii }
