package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ltsp"
	"ltsp/internal/hlo"
	"ltsp/internal/obs"
	"ltsp/internal/profile"
	"ltsp/internal/workload"
)

// OracleGapLoop is one loop's optimality-gap measurement: the production
// heuristic's achieved II and max register lifetime against the exact
// branch-and-bound solver's, under the paper's main configuration
// (HLO-directed hints, latency-tolerant).
type OracleGapLoop struct {
	Bench, Loop string
	// Body is the loop body size in instructions (after HLO).
	Body int
	// Sequential marks loops the pipeliner rejected; no gap exists.
	Sequential bool
	// Skipped marks pipelined loops beyond the exact probe's size budget.
	Skipped bool
	// HeurII / ExactII are the heuristic's achieved II and the best II
	// the exact probe established (equal when the heuristic is optimal
	// or the probe gave up; Proven distinguishes the two).
	HeurII, ExactII int
	// Proven reports ExactII is provably the optimal II.
	Proven bool
	// HeurLife / ExactLife are the maximum register lifetimes (the
	// rotating-register pressure proxy); ExactLife is -1 when the exact
	// solver never produced a schedule for this loop.
	HeurLife, ExactLife int
}

// OracleGapResult aggregates the optimality-gap sweep per benchmark.
type OracleGapResult struct {
	Loops []OracleGapLoop
	// Measured counts pipelined loops the probe decided; Proven those
	// with a proven-optimal ExactII; WithGap those where the heuristic's
	// II exceeds a proven-better exact II.
	Measured, Proven, WithGap, Skipped, Sequential int
	// IIGapPct is sum(HeurII)/sum(ExactII)-1 over measured loops, in
	// percent — the aggregate II the heuristic leaves on the table.
	IIGapPct float64
	// LifeGapPct is the same aggregate over max register lifetimes,
	// restricted to loops where the exact solver produced a schedule.
	LifeGapPct float64
}

// oracleGapTimeout bounds each loop's compile+probe; the exact solver's
// node budget usually triggers first, but a wall-clock ceiling keeps the
// sweep's worst case bounded on slow machines.
const oracleGapTimeout = 10 * time.Second

// evalOracleGap compiles one loop with the oracle backend and extracts
// the gap event; a loop that does not pipeline is marked Sequential.
func evalOracleGap(spec *workload.LoopSpec, bench string) (*OracleGapLoop, error) {
	cfg := WithHints(hlo.ModeHLO, false, 0)
	cfg.PipelineGate = 0 // the sweep pipelines every loop it can
	opts := cfg.compileOptions(profile.Static(spec.Facts))
	opts.LatencyTolerant = cfg.LatencyTolerant
	opts.Backend = ltsp.BackendOracle
	opts.Trace = ltsp.NewTrace()

	l := spec.Gen()
	ctx, cancel := context.WithTimeout(context.Background(), oracleGapTimeout)
	defer cancel()
	c, err := ltsp.CompileContext(ctx, l, opts)
	row := &OracleGapLoop{Bench: bench, Loop: spec.Name, Body: len(l.Body)}
	if err != nil || !c.Pipelined {
		// Not pipelinable under this configuration — no gap to measure.
		row.Sequential = true
		return row, nil
	}
	row.HeurII = c.II
	row.ExactII = c.II
	row.ExactLife = -1
	for _, e := range opts.Trace.Events() {
		if g, ok := e.(obs.OracleGapEvent); ok {
			row.HeurII, row.ExactII = g.HeurII, g.ExactII
			row.Proven = g.Proven
			row.HeurLife, row.ExactLife = g.HeurLife, g.ExactLife
		}
	}
	// The probe reports over-budget implicitly: no proof, exact equal to
	// the heuristic, and no exact schedule.
	if !row.Proven && row.ExactII == row.HeurII && row.ExactLife < 0 {
		row.Skipped = true
	}
	return row, nil
}

// RunOracleGap sweeps every workload loop, compiling each with the
// oracle backend (heuristic result, exact-solver probe) and aggregating
// the heuristic's optimality gap per benchmark.
func RunOracleGap() (*OracleGapResult, error) {
	benches := workload.All()
	rows, err := parMap(len(benches), Workers(), func(i int) ([]OracleGapLoop, error) {
		var out []OracleGapLoop
		for j := range benches[i].Loops {
			r, err := evalOracleGap(&benches[i].Loops[j], benches[i].Name)
			if err != nil {
				return nil, err
			}
			out = append(out, *r)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &OracleGapResult{}
	for _, rs := range rows {
		res.Loops = append(res.Loops, rs...)
	}
	var sumHeurII, sumExactII, sumHeurLife, sumExactLife int
	for _, r := range res.Loops {
		switch {
		case r.Sequential:
			res.Sequential++
		case r.Skipped:
			res.Skipped++
		default:
			res.Measured++
			sumHeurII += r.HeurII
			sumExactII += r.ExactII
			if r.Proven {
				res.Proven++
			}
			if r.ExactII < r.HeurII {
				res.WithGap++
			}
			if r.ExactLife >= 0 {
				sumHeurLife += r.HeurLife
				sumExactLife += r.ExactLife
			}
		}
	}
	if sumExactII > 0 {
		res.IIGapPct = (float64(sumHeurII)/float64(sumExactII) - 1) * 100
	}
	if sumExactLife > 0 {
		res.LifeGapPct = (float64(sumHeurLife)/float64(sumExactLife) - 1) * 100
	}
	return res, nil
}

// benchGap is one benchmark's aggregated row of the gap table.
type benchGap struct {
	loops, proven, skipped, seq    int
	heurII, exactII, heurL, exactL int
}

// String renders the per-benchmark oracle-gap table.
func (r *OracleGapResult) String() string {
	perBench := map[string]*benchGap{}
	var order []string
	for _, row := range r.Loops {
		g := perBench[row.Bench]
		if g == nil {
			g = &benchGap{}
			perBench[row.Bench] = g
			order = append(order, row.Bench)
		}
		switch {
		case row.Sequential:
			g.seq++
		case row.Skipped:
			g.skipped++
		default:
			g.loops++
			g.heurII += row.HeurII
			g.exactII += row.ExactII
			if row.Proven {
				g.proven++
			}
			if row.ExactLife >= 0 {
				g.heurL += row.HeurLife
				g.exactL += row.ExactLife
			}
		}
	}
	pct := func(a, b int) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", (float64(a)/float64(b)-1)*100)
	}
	var b strings.Builder
	b.WriteString("Oracle gap — heuristic vs exact branch-and-bound (HLO hints, latency-tolerant)\n\n")
	fmt.Fprintf(&b, "%-18s %8s %8s %8s %8s %8s %10s %10s\n",
		"benchmark", "loops", "proven", "skipped", "ΣII", "ΣII*", "II gap", "life gap")
	for _, name := range order {
		g := perBench[name]
		fmt.Fprintf(&b, "%-18s %8d %8d %8d %8d %8d %10s %10s\n",
			name, g.loops, g.proven, g.skipped, g.heurII, g.exactII,
			pct(g.heurII, g.exactII), pct(g.heurL, g.exactL))
	}
	fmt.Fprintf(&b, "\nmeasured %d pipelined loops (%d proven-optimal II, %d with a proven gap), "+
		"%d over budget, %d sequential\n",
		r.Measured, r.Proven, r.WithGap, r.Skipped, r.Sequential)
	fmt.Fprintf(&b, "aggregate II gap %+.2f%%, max-lifetime gap %+.2f%%\n", r.IIGapPct, r.LifeGapPct)
	return b.String()
}
