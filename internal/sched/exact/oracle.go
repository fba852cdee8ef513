package exact

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/sched"
)

// oracle is the "oracle" backend: it produces exactly the heuristic's
// result (schedule, kernel, trace prefix), then probes the exact solver
// for the optimal II and minimal max register lifetime and records the
// heuristic's optimality gap as an obs.OracleGapEvent. The production
// artifact is untouched — the oracle is a measurement instrument.
type oracle struct {
	lim Limits
}

// NewOracle returns a fresh oracle backend with the default size budget.
func NewOracle() sched.Scheduler { return &oracle{lim: DefaultLimits()} }

func (o *oracle) Name() string { return sched.BackendOracle }

// ScheduleAtII delegates to the production heuristic: the oracle never
// changes what gets compiled.
func (o *oracle) ScheduleAtII(ctx context.Context, req *sched.Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool) {
	return sched.Heuristic().ScheduleAtII(ctx, req, ii, latf, tr)
}

// Gap is the oracle's optimality-gap measurement for one compilation.
type Gap struct {
	// HeurII is the heuristic's achieved II; ExactII the best II the
	// exact probe established (equal to HeurII when every lower II was
	// refuted or the probe gave up).
	HeurII, ExactII int
	// Proven reports that ExactII is provably optimal.
	Proven bool
	// HeurLife / ExactLife are the maximum register lifetimes of the
	// heuristic schedule and the exact schedule at ExactII (ExactLife is
	// -1 when the probe never solved exactly, e.g. over-budget loops).
	HeurLife, ExactLife int
	// Skipped is set when the loop exceeded the probe's size budget.
	Skipped bool
}

// probe measures the heuristic's gap: it re-solves candidate IIs from
// MinII up to the heuristic's achieved II with the same policy
// latencies. Verdicts below the winner refine optimality; an undecided
// probe (or one beyond the size budget) leaves the gap unproven.
func (o *oracle) probe(ctx context.Context, req *sched.Request, heurII int, heurSched *modsched.Schedule) Gap {
	gap := Gap{HeurII: heurII, ExactII: heurII, HeurLife: MaxLifetime(req.Graph, heurSched), ExactLife: -1}
	if len(req.Loop.Body) > o.lim.MaxBody || heurII > o.lim.MaxII {
		gap.Skipped = true
		return gap
	}
	allRefuted := true
	for ii := req.MinII; ii <= heurII; ii++ {
		if ctx.Err() != nil {
			allRefuted = false
			break
		}
		sol, st, _ := SolveMin(ctx, req.Model, req.Graph, ii, req.PolLat, o.lim)
		if st == StatusFeasible {
			gap.ExactII = ii
			gap.ExactLife = MaxLifetime(req.Graph, sol)
			gap.Proven = allRefuted
			return gap
		}
		if st != StatusInfeasible {
			allRefuted = false
		}
	}
	// Nothing at or below the heuristic's II solved exactly. The
	// heuristic schedule itself witnesses feasibility at heurII, so the
	// gap is zero iff every lower II was refuted.
	gap.Proven = allRefuted
	return gap
}

// Search runs the heuristic search unchanged, then measures the
// optimality gap and emits it to the trace. The heuristic's result —
// schedule, payload, attempts — is returned as-is; only Proven is
// upgraded when the probe proves the heuristic already optimal.
func (o *oracle) Search(ctx context.Context, req *sched.Request, tr *obs.Trace, finish sched.Finisher) sched.Result {
	r := sched.Heuristic().Search(ctx, req, tr, finish)
	if !r.Found {
		return r
	}
	gap := o.probe(ctx, req, r.II, r.Sched)
	if tr.On() {
		tr.Emit(obs.OracleGapEvent{
			HeurII: gap.HeurII, ExactII: gap.ExactII, Proven: gap.Proven,
			HeurLife: gap.HeurLife, ExactLife: gap.ExactLife,
		})
	}
	if gap.Proven && gap.ExactII == r.II {
		r.Proven = true
	}
	return r
}
