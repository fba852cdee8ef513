package sched

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// attemptResult is the outcome of the full fallback ladder at one
// candidate II: the hint-latency attempt plus — when register allocation
// was the blocker — the reduced-latency retry at the same II.
type attemptResult struct {
	done     bool
	reduced  bool
	attempts int
	err      error // last failure recorded at this II
	sched    *modsched.Schedule
	payload  any
}

// tryAt schedules via the backend, then hands the schedule to the
// caller's Finisher (register allocation + code generation) at one
// (II, latency) point, accumulating placement counts and the failure
// (if any) in res.
func tryAt(s Scheduler, ctx context.Context, req *Request, res *attemptResult, ii int, lat ddg.LatencyFn, reduced bool, tr *obs.Trace, finish Finisher) (done, allocFailed bool) {
	sc, ok := s.ScheduleAtII(ctx, req, ii, lat, tr)
	if sc != nil {
		res.attempts += sc.Attempts
	}
	if !ok {
		return false, false
	}
	cand := finish(ii, sc, reduced, tr)
	if cand.Err != nil {
		res.err = cand.Err
	}
	if !cand.Done {
		return false, cand.AllocFailed
	}
	res.sched = sc
	res.payload = cand.Payload
	res.reduced = reduced
	return true, false
}

// attempt runs the fallback ladder at one II: schedule with the
// hint-derived latencies; when register allocation fails, retry the same
// II with all non-critical latencies reduced to base. Decision events go
// to tr.
func attempt(s Scheduler, ctx context.Context, req *Request, ii int, tr *obs.Trace, finish Finisher) attemptResult {
	var res attemptResult
	if ii > req.MinII && tr.On() {
		tr.Emit(obs.FallbackEvent{Rung: obs.RungRaiseII, II: ii})
	}
	done, allocFailed := tryAt(s, ctx, req, &res, ii, req.PolLat, false, tr, finish)
	if done {
		res.done = true
		return res
	}
	if allocFailed && req.HaveBoost {
		if tr.On() {
			tr.Emit(obs.FallbackEvent{Rung: obs.RungReduceLatency, II: ii})
		}
		if done, _ := tryAt(s, ctx, req, &res, ii, req.BaseLat, true, tr, finish); done {
			res.done = true
		}
	}
	return res
}

// SequentialSearch is the paper's search (Sec. 3.3): iterate the II
// upward from MinII, running the fallback ladder at each step, and stop
// at the first II the ladder satisfies. Every in-tree backend searches
// with it.
func SequentialSearch(s Scheduler, ctx context.Context, req *Request, tr *obs.Trace, finish Finisher) Result {
	var out Result
	var lastErr error
	for ii := req.MinII; ii <= req.MaxII; ii++ {
		if ctx.Err() != nil {
			out.LastErr = lastErr
			return out
		}
		res := attempt(s, ctx, req, ii, tr, finish)
		out.Attempts += res.attempts
		if res.err != nil {
			lastErr = res.err
		}
		if res.done {
			out.Found, out.II = true, ii
			out.Sched, out.Payload, out.Reduced = res.sched, res.payload, res.reduced
			out.Proven = ii == req.MinII // meets the lower bound
			return out
		}
	}
	out.LastErr = lastErr
	return out
}
