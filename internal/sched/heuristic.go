package sched

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// heuristic is the production backend: iterative modulo scheduling
// (package modsched) under the sequential II search. It is stateless;
// Heuristic() returns a shared instance.
type heuristic struct{}

var heuristicInstance Scheduler = heuristic{}

// Heuristic returns the production scheduling backend. It reproduces the
// pre-interface pipeline byte-identically: same schedules, same decision
// traces, same placement-attempt totals.
func Heuristic() Scheduler { return heuristicInstance }

func (heuristic) Name() string { return BackendHeuristic }

// ScheduleAtII runs one iterative-modulo-scheduling attempt. A single
// attempt is never interrupted mid-flight — cancellation granularity is
// one (II, latency) attempt, enforced by the search loop — so ctx is
// intentionally unused here.
func (heuristic) ScheduleAtII(_ context.Context, req *Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	return modsched.ScheduleAtII(req.Model, req.Graph, ii, latf, modsched.Options{BudgetRatio: req.BudgetRatio, Trace: tr})
}

func (h heuristic) Search(ctx context.Context, req *Request, tr *obs.Trace, finish Finisher) Result {
	return SequentialSearch(h, ctx, req, tr, finish)
}
