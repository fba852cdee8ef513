package experiments

import (
	"math"
	"testing"

	"ltsp/internal/hlo"
	"ltsp/internal/workload"
)

// gainOf looks up one benchmark's gain in a suite result.
func gainOf(t *testing.T, r *SuiteResult, bench string, cfg int) float64 {
	t.Helper()
	for i, n := range r.Benchmarks {
		if n == bench {
			return r.Gains[i][cfg]
		}
	}
	t.Fatalf("benchmark %s not in result", bench)
	return 0
}

// TestFig5ValidationMatchesFormula checks the simulator against the
// paper's Equ. 2: for every (level, k) point the measured stall reduction
// must match 100*(1-(1-c)/k) within a few points.
func TestFig5ValidationMatchesFormula(t *testing.T) {
	pts := result[Fig5Result](t, "fig5").Validation
	if len(pts) < 12 {
		t.Fatalf("only %d validation points", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Measured-p.Predicted) > 3 {
			t.Errorf("%s k=%d: measured %.1f%% vs predicted %.1f%%",
				p.Level, p.K, p.Measured, p.Predicted)
		}
	}
}

func TestAnalyticFig5(t *testing.T) {
	pts := AnalyticFig5()
	if len(pts) != 32 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// c = 1 gives full reduction; k = 1 gives 100*c.
		if p.C == 1 && math.Abs(p.Reduction-100) > 1e-9 {
			t.Errorf("full coverage k=%d: %.1f", p.K, p.Reduction)
		}
		if p.K == 1 && math.Abs(p.Reduction-100*p.C) > 1e-9 {
			t.Errorf("no clustering c=%.2f: %.1f", p.C, p.Reduction)
		}
		if p.Reduction < 0 || p.Reduction > 100 {
			t.Errorf("reduction out of range: %+v", p)
		}
	}
	// The paper's headline point: k=3 at c=0.01 reduces stalls by about
	// two thirds.
	for _, p := range pts {
		if p.K == 3 && p.C == 0.01 && (p.Reduction < 66 || p.Reduction > 68) {
			t.Errorf("k=3,c=0.01: %.1f%%, want ~67%%", p.Reduction)
		}
	}
}

// TestFig7Shape asserts the headroom experiment's qualitative structure.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*Fig7Result](t, "fig7")
	g06 := r.CPU2006.Geomean
	// Thresholds help: the geomean at n=16/32 beats n=0.
	if !(g06[2] > g06[0] && g06[3] > g06[0]) {
		t.Errorf("CPU2006 geomeans %v: thresholds do not help", g06)
	}
	// The n=64 threshold forfeits some gains (wrf-class loops).
	if !(g06[4] < g06[3]) {
		t.Errorf("CPU2006 geomeans %v: no decline at n=64", g06)
	}
	// CPU2000 starts negative without a threshold.
	g00 := r.CPU2000.Geomean
	if g00[0] >= 0 {
		t.Errorf("CPU2000 n=0 geomean = %.1f, want negative (paper: -0.7)", g00[0])
	}
	if !(g00[1] > g00[0]) {
		t.Errorf("CPU2000 geomeans %v: n=8 does not beat n=0", g00)
	}

	// 464.h264ref: the low-threshold regression disappears from n=16 on.
	for ci, n := range Fig7Thresholds {
		g := gainOf(t, r.CPU2006, "464.h264ref", ci)
		if n < 16 && g > -8 {
			t.Errorf("h264ref at n=%g: %.1f%%, want a substantial loss", n, g)
		}
		if n >= 16 && math.Abs(g) > 1 {
			t.Errorf("h264ref at n=%g: %.1f%%, want ~0", n, g)
		}
	}
	// 177.mesa: the training/reference divergence defeats every threshold.
	for ci := range Fig7Thresholds {
		if g := gainOf(t, r.CPU2000, "177.mesa", ci); g > -5 {
			t.Errorf("mesa at threshold %d: %.1f%%, loss must persist", ci, g)
		}
	}
	// Large gains survive the n=32 threshold (paper: mcf +14, namd +10,
	// libquantum +7, wrf +7, art +12, sixtrack +8).
	for bench, min := range map[string]float64{
		"429.mcf": 5, "444.namd": 5, "462.libquantum": 4, "481.wrf": 5,
	} {
		if g := gainOf(t, r.CPU2006, bench, 3); g < min {
			t.Errorf("%s at n=32: %.1f%%, want >= %.0f", bench, g, min)
		}
	}
	for bench, min := range map[string]float64{"179.art": 6, "200.sixtrack": 6} {
		if g := gainOf(t, r.CPU2000, bench, 3); g < min {
			t.Errorf("%s at n=32: %.1f%%, want >= %.0f", bench, g, min)
		}
	}
	// wrf's gain is gone at n=64 (average trip 48 < 64).
	if g := gainOf(t, r.CPU2006, "481.wrf", 4); math.Abs(g) > 1 {
		t.Errorf("wrf at n=64: %.1f%%, want ~0", g)
	}
	// Disabling prefetching enlarges the headroom (paper: 4.6% vs 2.2%).
	if r.PrefetchOffGain < r.CPU2006.Geomean[3] {
		t.Errorf("prefetch-off gain %.1f%% not larger than the default %.1f%%",
			r.PrefetchOffGain, r.CPU2006.Geomean[3])
	}
}

// TestFig8Shape asserts the prefetcher-hints experiment structure.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*Fig8Result](t, "fig8")
	// Both moderate settings gain on both suites.
	for _, g := range append(append([]float64{}, r.CPU2006.Geomean...), r.CPU2000.Geomean...) {
		if g <= 0 {
			t.Errorf("geomean %.1f%% not positive", g)
		}
	}
	// HLO hints give roughly twice the FP-L2 default (paper: 1.1 -> 2.0).
	if !(r.CPU2006.Geomean[1] > r.CPU2006.Geomean[0]) {
		t.Errorf("CPU2006: HLO %.1f%% does not beat FP-L2 %.1f%%",
			r.CPU2006.Geomean[1], r.CPU2006.Geomean[0])
	}
	// The mesa loss disappears under selective hints.
	if g := gainOf(t, r.CPU2000, "177.mesa", 1); math.Abs(g) > 1 {
		t.Errorf("mesa under HLO hints: %.1f%%, want ~0", g)
	}
	// Integer benchmarks now benefit too (paper: mcf +12).
	if g := gainOf(t, r.CPU2006, "429.mcf", 1); g < 5 {
		t.Errorf("mcf under HLO hints: %.1f%%", g)
	}
	// No substantial regressions remain (paper's key observation).
	for bi, bench := range r.CPU2006.Benchmarks {
		if g := r.CPU2006.Gains[bi][1]; g < -2 {
			t.Errorf("%s regresses %.1f%% under HLO hints with PGO", bench, g)
		}
	}
}

// TestFig9Shape asserts the no-PGO experiment structure.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*Fig9Result](t, "fig9")
	allL3, hloGain := r.CPU2006.Geomean[0], r.CPU2006.Geomean[1]
	// Load-latency information compensates for missing trip counts:
	// indiscriminate boosting is near zero or negative, HLO hints win
	// clearly (paper: -0.7 vs +2.2).
	if allL3 > 0.5 {
		t.Errorf("all-L3 without PGO: %.1f%%, want <= 0.5", allL3)
	}
	if hloGain < 1 {
		t.Errorf("HLO without PGO: %.1f%%, want >= 1", hloGain)
	}
	if hloGain <= allL3 {
		t.Error("HLO hints do not beat indiscriminate boosting")
	}
	// 445.gobmk: the worst case persists under HLO hints (paper keeps a
	// loss), but selective hints shrink it.
	lossAll := gainOf(t, r.CPU2006, "445.gobmk", 0)
	lossHLO := gainOf(t, r.CPU2006, "445.gobmk", 1)
	if lossHLO > -2 {
		t.Errorf("gobmk loss gone under HLO: %.1f%%", lossHLO)
	}
	if lossHLO < lossAll {
		t.Errorf("HLO hints made gobmk worse: %.1f vs %.1f", lossHLO, lossAll)
	}
	// h264ref is protected by HLO hints even without PGO.
	if g := gainOf(t, r.CPU2006, "464.h264ref", 1); math.Abs(g) > 1 {
		t.Errorf("h264ref under HLO/noPGO: %.1f%%", g)
	}
	// Named winners (paper: namd +11, libquantum +14, wrf +7, mcf +10).
	for bench, min := range map[string]float64{
		"444.namd": 4, "462.libquantum": 4, "481.wrf": 5, "429.mcf": 5,
	} {
		if g := gainOf(t, r.CPU2006, bench, 1); g < min {
			t.Errorf("%s: %.1f%%, want >= %.0f", bench, g, min)
		}
	}
}

// TestFig10Directions asserts every counter moves the paper's way.
func TestFig10Directions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*Fig10Result](t, "fig10")
	if r.ExeChange >= 0 {
		t.Errorf("BE_EXE_BUBBLE %+.1f%%, want a reduction (paper: -12%%)", r.ExeChange)
	}
	if r.RSEChange <= 0 {
		t.Errorf("BE_RSE_BUBBLE %+.1f%%, want an increase (paper: +14%%)", r.RSEChange)
	}
	if r.L1DFPUChange < 0 {
		t.Errorf("BE_L1D_FPU_BUBBLE %+.1f%%, want >= 0 (paper: +8%%)", r.L1DFPUChange)
	}
	if r.UnstalledChange <= 0 {
		t.Errorf("unstalled %+.1f%%, want a slight increase (paper: +1.2%%)", r.UnstalledChange)
	}
	if r.TotalChange >= 0 {
		t.Errorf("total %+.1f%%, the optimization must win overall", r.TotalChange)
	}
	if r.OzQShareVar < r.OzQShareBase {
		t.Errorf("OzQ-full share fell: %.1f -> %.1f", r.OzQShareBase, r.OzQShareVar)
	}
}

// TestCaseStudy asserts the Sec. 4.4 reproduction.
func TestCaseStudy(t *testing.T) {
	r := result[*CaseStudyResult](t, "casestudy")
	if math.Abs(r.AvgTrip-2.3) > 0.05 {
		t.Errorf("avg trip = %.2f, want 2.3", r.AvgTrip)
	}
	if len(r.DelinquentLoads) < 4 {
		t.Errorf("delinquent loads = %v, want the chase + 4 payload loads", r.DelinquentLoads)
	}
	// The decision trace must name the pointer-chase load critical.
	foundChase := false
	for _, n := range r.CriticalLoads {
		if n == "node = node->child" {
			foundChase = true
		}
	}
	if !foundChase {
		t.Errorf("critical loads = %v, want the chase load among them", r.CriticalLoads)
	}
	if r.Outcome != "pipelined" {
		t.Errorf("outcome = %q, want pipelined", r.Outcome)
	}
	// Every boosted payload load clusters (paper: k = 2).
	boosted := 0
	for name, k := range r.ClusterK {
		boosted++
		if k < 2 {
			t.Errorf("%s: k = %d, want >= 2", name, k)
		}
	}
	if boosted < 4 {
		t.Errorf("only %d payload loads boosted", boosted)
	}
	if r.SpeedupPct < 20 || r.SpeedupPct > 70 {
		t.Errorf("loop speedup = %.1f%%, want in the 40%%-ballpark", r.SpeedupPct)
	}
}

// TestRegStats asserts Sec. 4.5: register usage grows, in the paper's
// ordering (GR < FR < PR), while staying well inside the register files.
func TestRegStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*RegStatsResult](t, "regstats")
	if r.GRChange <= 0 || r.FRChange <= 0 || r.PRChange <= 0 {
		t.Errorf("register changes %+.1f/%+.1f/%+.1f, all must grow",
			r.GRChange, r.FRChange, r.PRChange)
	}
	if !(r.GRChange < r.FRChange && r.FRChange < r.PRChange) {
		t.Errorf("ordering GR(%+.1f) < FR(%+.1f) < PR(%+.1f) violated",
			r.GRChange, r.FRChange, r.PRChange)
	}
	// "less than one fifth of the available registers".
	for name, share := range map[string]float64{
		"GR": r.GRShare, "FR": r.FRShare, "PR": r.PRShare,
	} {
		if share <= 0 || share > 0.2 {
			t.Errorf("%s share = %.2f, want (0, 0.2]", name, share)
		}
	}
	if r.SpillPressureChange < 0 || r.SpillPressureChange > 10 {
		t.Errorf("spill pressure change = %+.1f%%, want small and non-negative", r.SpillPressureChange)
	}
}

// TestCompileTime asserts the Sec. 3.3 claim: the scheduling-work change
// stays in the noise range.
func TestCompileTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	r := result[*CompileTimeResult](t, "compiletime")
	if r.BaseAttempts == 0 || r.VariantAttempts == 0 {
		t.Error("no attempts measured")
	}
	if math.Abs(r.EstCompileTimeIncreasePct) > 2 {
		t.Errorf("projected compile-time change %+.2f%%, want noise range (paper: +0.5%%)",
			r.EstCompileTimeIncreasePct)
	}
}

// TestEvalBenchmarkIdentity: evaluating the baseline against itself gives
// zero gain for every benchmark.
func TestEvalBenchmarkIdentity(t *testing.T) {
	base := Baseline(true)
	for _, name := range []string{"429.mcf", "177.mesa", "464.h264ref"} {
		b := workload.ByName(name)
		r, err := EvalBenchmark(b, base, base)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.GainPct) > 1e-9 {
			t.Errorf("%s: self-gain = %f", name, r.GainPct)
		}
	}
}

// TestEvalLoopFields sanity-checks one loop evaluation end to end.
func TestEvalLoopFields(t *testing.T) {
	spec := &workload.ByName("464.h264ref").Loops[0]
	ev, err := EvalLoop(spec, WithHints(hlo.ModeAllL3, true, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Pipelined || ev.II < 1 || ev.Stages < 1 {
		t.Errorf("eval = %+v", ev)
	}
	if ev.Boosted == 0 {
		t.Error("no loads boosted under all-L3 with n=0")
	}
	if ev.Cycles <= 0 {
		t.Error("no cycles measured")
	}
	total := ev.Acct.Unstalled + ev.Acct.Exe + ev.Acct.L1DFPU + ev.Acct.RSE + ev.Acct.Flush + ev.Acct.FE
	if math.Abs(total-ev.Acct.Total) > 1e-6*ev.Acct.Total {
		t.Errorf("accounting does not sum: %f vs %f", total, ev.Acct.Total)
	}
}

// TestThresholdGatesBoosting: the same loop boosted at n=0 and not at a
// threshold above its trip count.
func TestThresholdGatesBoosting(t *testing.T) {
	spec := &workload.ByName("464.h264ref").Loops[0] // trip 10
	at0, err := EvalLoop(spec, WithHints(hlo.ModeAllL3, true, 0))
	if err != nil {
		t.Fatal(err)
	}
	at32, err := EvalLoop(spec, WithHints(hlo.ModeAllL3, true, 32))
	if err != nil {
		t.Fatal(err)
	}
	if at0.Boosted == 0 || at32.Boosted != 0 {
		t.Errorf("boosted: n=0 %d, n=32 %d", at0.Boosted, at32.Boosted)
	}
	if at0.Stages <= at32.Stages {
		t.Error("boosting did not add stages")
	}
}

// TestDelinquentOverridesThreshold: mcf's chase loop is boosted under HLO
// hints even at n=32 (trip 2.3), via the delinquent-load override.
func TestDelinquentOverridesThreshold(t *testing.T) {
	var spec *workload.LoopSpec
	for i := range workload.ByName("429.mcf").Loops {
		if workload.ByName("429.mcf").Loops[i].Name == "refresh_potential" {
			spec = &workload.ByName("429.mcf").Loops[i]
		}
	}
	ev, err := EvalLoop(spec, WithHints(hlo.ModeHLO, true, 32))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Boosted == 0 {
		t.Error("delinquent loads not boosted below the trip threshold")
	}
	// Under the headroom mode (no delinquent marking) the threshold wins.
	ev2, err := EvalLoop(spec, WithHints(hlo.ModeAllL3, true, 32))
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Boosted != 0 {
		t.Error("all-L3 mode boosted below the threshold")
	}
}

// TestPipelineGateUsesEstimates: gobmk is pipelined only under static
// estimation (PGO sees the true low trip count).
func TestPipelineGateUsesEstimates(t *testing.T) {
	spec := &workload.ByName("445.gobmk").Loops[0]
	pgo, err := EvalLoop(spec, Baseline(true))
	if err != nil {
		t.Fatal(err)
	}
	static, err := EvalLoop(spec, Baseline(false))
	if err != nil {
		t.Fatal(err)
	}
	if pgo.Pipelined {
		t.Error("PGO pipelined the low-trip gobmk loop")
	}
	if !static.Pipelined {
		t.Error("static estimation did not pipeline gobmk")
	}
}

// TestOzQAblation: the paper's closing conjecture — deeper memory queues
// raise the optimization's benefit — must hold monotonically (weakly).
func TestOzQAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	pts := result[AblationResult](t, "ablation").OzQ
	for i := 1; i < len(pts); i++ {
		if pts[i].Gain < pts[i-1].Gain-0.3 {
			t.Errorf("gain fell with capacity: %+v", pts)
		}
	}
	if first, last := pts[0], pts[len(pts)-1]; last.Gain <= first.Gain {
		t.Errorf("no benefit from deeper queues: %.1f -> %.1f", first.Gain, last.Gain)
	}
	// The stall share must shrink as the queue deepens.
	if pts[0].StallShare <= pts[len(pts)-1].StallShare {
		t.Errorf("OzQ-full share did not shrink: %+v", pts)
	}
}

// TestRotRegAblation: with small rotating files the fallback ladder fires
// and the gains collapse; the architectural 96 is comfortably enough.
func TestRotRegAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	pts := result[AblationResult](t, "ablation").RotReg
	small, full := pts[0], pts[len(pts)-1]
	if small.Reduced == 0 {
		t.Error("tiny rotating file never forced latency reduction")
	}
	if full.Reduced != 0 {
		t.Errorf("architectural file forced %d latency reductions", full.Reduced)
	}
	if small.Gain >= full.Gain {
		t.Errorf("gains did not collapse with the small file: %.1f vs %.1f",
			small.Gain, full.Gain)
	}
}

// TestVersioning: the paper's trip-count versioning outlook. Dispatching
// on the actual trip count must repair the static-threshold failure modes
// (mesa's training/reference divergence, gobmk/h264ref under static
// estimates) while keeping the long-trip gains.
func TestVersioning(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	r := result[*VersioningResult](t, "versioning")
	// mesa: every static threshold loses ~19%; versioning recovers most.
	staticLoss := gainOf(t, r.CPU2000PGO, "177.mesa", 0)
	versioned := gainOf(t, r.CPU2000PGO, "177.mesa", 1)
	if versioned < staticLoss+5 {
		t.Errorf("mesa: versioning %.1f%% did not repair the static %.1f%%", versioned, staticLoss)
	}
	// Without PGO the whole-suite geomean flips from ~0 to clearly positive.
	if !(r.CPU2006NoPGO.Geomean[1] > r.CPU2006NoPGO.Geomean[0]+0.5) {
		t.Errorf("versioning does not beat the static threshold: %v", r.CPU2006NoPGO.Geomean)
	}
	for _, bench := range []string{"445.gobmk", "464.h264ref"} {
		s, v := gainOf(t, r.CPU2006NoPGO, bench, 0), gainOf(t, r.CPU2006NoPGO, bench, 1)
		if v < s+5 {
			t.Errorf("%s: versioned %.1f%% vs static %.1f%%", bench, v, s)
		}
	}
	// The long-trip winners keep their gains.
	if g := gainOf(t, r.CPU2006NoPGO, "481.wrf", 1); g < 5 {
		t.Errorf("wrf under versioning: %.1f%%", g)
	}
}

// TestMissSampling: the paper's dynamic cache-miss sampling outlook.
// Hints from observed latencies must match or beat the static heuristics
// and eliminate the gobmk worst case.
func TestMissSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	r := result[*SamplingResult](t, "sampling")
	static, sampled := r.CPU2006.Geomean[0], r.CPU2006.Geomean[1]
	if sampled < static-0.2 {
		t.Errorf("sampled hints %.1f%% worse than static heuristics %.1f%%", sampled, static)
	}
	// gobmk: the static heuristics hint its cache-hot indirect loads;
	// sampling observes the low latencies and leaves them alone.
	g := gainOf(t, r.CPU2006, "445.gobmk", 1)
	if g < -1 {
		t.Errorf("gobmk still loses %.1f%% under sampled hints", g)
	}
	// The genuine delinquents keep their hints and gains.
	for _, bench := range []string{"429.mcf", "462.libquantum", "481.wrf"} {
		if g := gainOf(t, r.CPU2006, bench, 1); g < 5 {
			t.Errorf("%s under sampled hints: %.1f%%", bench, g)
		}
	}
}

// TestRotVsUnroll: the related-work claim — clustering without rotation
// costs U-fold code size and a far larger plain-register footprint, and
// deep latency buffers may not fit at all.
func TestRotVsUnroll(t *testing.T) {
	rows := result[AblationResult](t, "ablation").RotVsUnroll
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	deepBuffers := 0
	for _, r := range rows {
		if r.Failed {
			continue
		}
		if r.Unroll < 2 {
			t.Errorf("%s: unroll factor %d, pipelined values must span iterations", r.Loop, r.Unroll)
		}
		if r.PlainRegs < r.RotRegs {
			t.Errorf("%s: unrolled kernel uses fewer registers (%d) than rotating (%d)",
				r.Loop, r.PlainRegs, r.RotRegs)
		}
		if r.Unroll >= 8 {
			deepBuffers++
		}
	}
	if deepBuffers == 0 {
		t.Error("no loop required a deep unroll; the comparison shows nothing")
	}
}
