package ltsp_test

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates its experiment and
// reports the headline quantities as custom metrics so that
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The printed metric names carry the
// paper's reported value for side-by-side comparison; see EXPERIMENTS.md
// for the full tables.

import (
	"testing"

	"ltsp/internal/experiments"
)

// BenchmarkFig5StallReduction validates the stall-reduction law (paper
// Equ. 2 / Fig. 5): the simulated stall reduction for clustered
// non-critical loads must match 100*(1-(1-c)/k). The reported metric is
// the maximum absolute deviation between simulation and formula in
// percentage points.
func BenchmarkFig5StallReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig5Validation()
		if err != nil {
			b.Fatal(err)
		}
		maxDev := 0.0
		for _, p := range pts {
			d := p.Measured - p.Predicted
			if d < 0 {
				d = -d
			}
			if d > maxDev {
				maxDev = d
			}
		}
		b.ReportMetric(maxDev, "max-deviation-pp")
	}
}

// BenchmarkFig7Headroom regenerates the headroom experiment (all
// non-critical loads at the typical L3 latency, PGO trip counts, five
// trip-count thresholds). Paper geomeans: CPU2006 +0.5/+1.3/+2.4/+2.3/
// +2.1 %, CPU2000 -0.7/+0.8/+0.6/+0.6/+0.3 %.
func BenchmarkFig7Headroom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		for ti, n := range experiments.Fig7Thresholds {
			b.ReportMetric(r.CPU2006.Geomean[ti], fmtMetric("cpu2006-n", int(n)))
			b.ReportMetric(r.CPU2000.Geomean[ti], fmtMetric("cpu2000-n", int(n)))
		}
		b.ReportMetric(r.PrefetchOffGain, "prefetch-off-%")
	}
}

// BenchmarkFig8PrefetcherHints regenerates the Fig. 8 experiment
// (all-FP-L2 hints and HLO-directed hints, PGO, n=32). Paper geomeans:
// CPU2006 +1.1/+2.0 %, CPU2000 +0.6/+1.3 %.
func BenchmarkFig8PrefetcherHints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPU2006.Geomean[0], "cpu2006-fp-l2-%")
		b.ReportMetric(r.CPU2006.Geomean[1], "cpu2006-hlo-%")
		b.ReportMetric(r.CPU2000.Geomean[0], "cpu2000-fp-l2-%")
		b.ReportMetric(r.CPU2000.Geomean[1], "cpu2000-hlo-%")
	}
}

// BenchmarkFig9NoPGO regenerates the Fig. 9 experiment (static trip-count
// estimates, CPU2006). Paper geomeans: all-L3 -0.7 %, HLO +2.2 %.
func BenchmarkFig9NoPGO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPU2006.Geomean[0], "all-l3-%")
		b.ReportMetric(r.CPU2006.Geomean[1], "hlo-%")
	}
}

// BenchmarkFig10CycleAccounting regenerates the cycle-accounting
// comparison. Paper: BE_EXE_BUBBLE -12 %, BE_L1D_FPU_BUBBLE +8 %,
// BE_RSE_BUBBLE +14 %, unstalled +1.2 %.
func BenchmarkFig10CycleAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ExeChange, "exe-bubble-%")
		b.ReportMetric(r.L1DFPUChange, "l1d-fpu-bubble-%")
		b.ReportMetric(r.RSEChange, "rse-bubble-%")
		b.ReportMetric(r.UnstalledChange, "unstalled-%")
	}
}

// BenchmarkMCFCaseStudy regenerates the Sec. 4.4 case study: the
// refresh_potential pointer chase at average trip 2.3. Paper: clustering
// k = 2, +40 % loop speedup.
func BenchmarkMCFCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpeedupPct, "loop-speedup-%")
		minK := 1 << 30
		for _, k := range r.ClusterK {
			if k < minK {
				minK = k
			}
		}
		b.ReportMetric(float64(minK), "min-cluster-k")
	}
}

// BenchmarkRegisterStats regenerates the Sec. 4.5 register statistics.
// Paper: GR +14 %, FR +20 %, PR +35 %, all under one fifth of the files.
func BenchmarkRegisterStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunRegStats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GRChange, "gr-%")
		b.ReportMetric(r.FRChange, "fr-%")
		b.ReportMetric(r.PRChange, "pr-%")
	}
}

// BenchmarkCompileTime regenerates the Sec. 3.3 compile-time measurement.
// Paper: ~+0.5 % whole-compiler time, "in the noise range".
func BenchmarkCompileTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCompileTime()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EstCompileTimeIncreasePct, "compile-time-%")
	}
}

// BenchmarkVersioning runs the trip-count versioning extension (the
// paper's Sec. 6 outlook): two kernels dispatched on the actual trip
// count, repairing the static-threshold failure modes.
func BenchmarkVersioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunVersioning()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPU2006NoPGO.Geomean[0], "static-n32-%")
		b.ReportMetric(r.CPU2006NoPGO.Geomean[1], "versioned-%")
	}
}

// BenchmarkMissSampling runs the dynamic cache-miss sampling extension
// (the other Sec. 6 outlook item): hints from observed latencies.
func BenchmarkMissSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMissSampling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPU2006.Geomean[0], "static-heuristics-%")
		b.ReportMetric(r.CPU2006.Geomean[1], "sampled-hints-%")
	}
}

// BenchmarkAblationOzQ sweeps the OzQ capacity (design-space question from
// the paper's conclusion: "the benefit could be much higher if the queuing
// capacities in the cache hierarchy were increased"). Reports the HLO gain
// at the smallest and largest capacity.
func BenchmarkAblationOzQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunOzQAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Gain, "gain-at-min-capacity-%")
		b.ReportMetric(pts[len(pts)-1].Gain, "gain-at-max-capacity-%")
	}
}

// BenchmarkAblationRotRegs sweeps the rotating-register supply (the paper
// credits Itanium's 96+96 rotating registers for making aggressive latency
// increases affordable).
func BenchmarkAblationRotRegs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunRotRegAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Gain, "gain-at-12-regs-%")
		b.ReportMetric(pts[len(pts)-1].Gain, "gain-at-96-regs-%")
		b.ReportMetric(float64(pts[0].Reduced), "fallbacks-at-12-regs")
	}
}

// BenchmarkAblationRotVsUnroll compares rotating-register codegen against
// modulo-variable-expansion unrolling (the paper's related-work claim).
// Reports the largest unroll factor required.
func BenchmarkAblationRotVsUnroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRotVsUnroll()
		if err != nil {
			b.Fatal(err)
		}
		maxU := 0
		for _, r := range rows {
			if r.Unroll > maxU {
				maxU = r.Unroll
			}
		}
		b.ReportMetric(float64(maxU), "max-unroll-factor")
	}
}

func fmtMetric(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + digits + "-%"
}
