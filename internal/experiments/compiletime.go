package experiments

import (
	"ltsp/internal/hlo"
	"ltsp/internal/workload"
)

// CompileTimeResult reproduces the paper's Sec. 3.3 compile-time
// observation: latency-tolerant pipelining can force extra
// modulo-scheduling attempts (the fallback ladder after register
// allocation failures), but the cost stays in the noise range (paper:
// ~0.5% compile time).
type CompileTimeResult struct {
	// BaseAttempts / VariantAttempts are total scheduler placement
	// operations across every pipelined loop of CPU2006.
	BaseAttempts, VariantAttempts int64
	// AttemptIncreasePct is the relative increase of scheduler work.
	AttemptIncreasePct float64
	// EstCompileTimeIncreasePct scales the attempt increase by the modulo
	// scheduler's share of total compile time (~5% in a production
	// compiler), giving the paper-comparable whole-compiler figure.
	EstCompileTimeIncreasePct float64
	// LatencyReduced / IIBumps count how often the fallback ladder fired.
	LatencyReduced, IIBumps int
	// PaperIncreasePct is the paper's reported compile-time increase.
	PaperIncreasePct float64
}

// pipelinerCompileShare is the modulo scheduler's assumed share of whole-
// compiler time when projecting attempt increases onto compile time.
const pipelinerCompileShare = 0.05

// RunCompileTime measures scheduling-attempt inflation. It compiles
// every loop and simulates none. Benchmarks are compiled on the
// Workers()-wide pool and their attempt counts summed in suite order,
// identical to the sequential loop at any width.
func RunCompileTime() (*CompileTimeResult, error) {
	base := Baseline(false)
	variant := WithHints(hlo.ModeHLO, false, 32)
	res := &CompileTimeResult{PaperIncreasePct: 0.5}
	benches := workload.CPU2006()
	type attempts struct{ base, variant int64 }
	sums, err := parMap(len(benches), Workers(), func(i int) (attempts, error) {
		var a attempts
		for j := range benches[i].Loops {
			spec := &benches[i].Loops[j]
			cb, err := compileLoop(spec, base)
			if err != nil {
				return a, err
			}
			cv, err := compileLoop(spec, variant)
			if err != nil {
				return a, err
			}
			a.base += int64(cb.ev.Attempts)
			a.variant += int64(cv.ev.Attempts)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	for _, a := range sums {
		res.BaseAttempts += a.base
		res.VariantAttempts += a.variant
	}
	if res.BaseAttempts > 0 {
		res.AttemptIncreasePct = (float64(res.VariantAttempts)/float64(res.BaseAttempts) - 1) * 100
		res.EstCompileTimeIncreasePct = res.AttemptIncreasePct * pipelinerCompileShare
	}
	return res, nil
}
