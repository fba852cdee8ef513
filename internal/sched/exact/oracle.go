package exact

import (
	"context"

	"ltsp/internal/ddg"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
)

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
}

// Probe measures the "oracle" backend's optimality gap of a heuristic
// schedule: it re-solves candidate IIs from minII up to the schedule's
// II with the same latencies. Verdicts below the winner refine
// optimality; an undecided probe (or one beyond the size budget) leaves
// the gap unproven. The heuristic's artifact is untouched — the oracle
// is a measurement instrument.
func Probe(ctx context.Context, m *machine.Model, g *ddg.Graph, minII int, latf ddg.LatencyFn, heur *modsched.Schedule, lim Limits) Gap {
	heurII := heur.II
	gap := Gap{HeurII: heurII, ExactII: heurII, HeurLife: MaxLifetime(g, heur), ExactLife: -1}
	if len(g.Loop.Body) > lim.MaxBody || heurII > lim.MaxII {
		return gap
	}
	allRefuted := true
	for ii := minII; ii <= heurII; ii++ {
		if ctx.Err() != nil {
			allRefuted = false
			break
		}
		sol, st, _ := SolveMin(ctx, m, g, ii, latf, lim)
		if st == StatusFeasible {
			gap.ExactII = ii
			gap.ExactLife = MaxLifetime(g, sol)
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
