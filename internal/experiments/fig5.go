package experiments

import (
	"context"
	"fmt"

	"ltsp/internal/compiler"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/sim"
)

// Fig5Point is one point of the stall-reduction law (paper Equ. 2):
// reduction = 100 * (1 - (1-c)/k) for coverage ratio c and clustering
// factor k.
type Fig5Point struct {
	K         int
	C         float64
	Reduction float64
}

// AnalyticFig5 evaluates Equ. 2 over the paper's grid: k = 1..8 and
// c in {1, 0.5, 0.1, 0.01}.
func AnalyticFig5() []Fig5Point {
	var out []Fig5Point
	for _, c := range []float64{1, 0.5, 0.1, 0.01} {
		for k := 1; k <= 8; k++ {
			out = append(out, Fig5Point{K: k, C: c, Reduction: 100 * (1 - (1-c)/float64(k))})
		}
	}
	return out
}

// Fig5Validation is one simulated validation point: a single-load loop is
// scheduled with additional latency d = (k-1)*II, every load misses to a
// fixed hierarchy level, and the measured stall reduction is compared with
// the analytic prediction computed from the *measured* baseline stall.
type Fig5Validation struct {
	Level     string
	K, D      int
	MeasuredL float64 // baseline stall per iteration (the exposed latency L)
	Measured  float64 // measured stall reduction, percent
	Predicted float64 // Equ. 2 with c = d/L, percent
}

// fig5Loop builds the single-load validation loop: a strided load (one
// access per cache line) feeding a store into a small, cache-hot region.
func fig5Loop(stride int64) *ir.Loop {
	l := ir.NewLoop("fig5")
	b, c, v := l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, b, 4, stride)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideConst, stride
	l.Append(ld)
	st := ir.St(c, v, 4, 0) // fixed cell: stays cache-hot
	l.Append(st)
	l.Init(b, 0x0100_0000)
	l.Init(c, 0x0900_0000)
	return l
}

// RunFig5Validation sweeps clustering factors over three miss levels
// (memory, L3, L2) and returns measured-vs-predicted stall reductions.
func RunFig5Validation() ([]Fig5Validation, error) {
	type level struct {
		name  string
		lines int64 // working-set size in 128-byte lines
		cold  bool  // drop caches before each measured run
	}
	levels := []level{
		{"memory", 1 << 14, true}, // 2 MB streamed cold: always misses to memory
		{"L3", 1 << 14, false},    // 2 MB warmed: L2-evicted, L3-resident
		{"L2", 1 << 10, false},    // 128 KB warmed: mostly L2-resident
	}
	const stride = 128
	var out []Fig5Validation
	for _, lv := range levels {
		trip := lv.lines - 8
		baseEXE, baseII, err := fig5Measure(0, trip, lv.cold)
		if err != nil {
			return nil, err
		}
		l := baseEXE / float64(trip)
		if l <= 0 {
			return nil, fmt.Errorf("fig5: level %s shows no baseline stall", lv.name)
		}
		for _, k := range []int{2, 3, 4, 6, 8} {
			d := (k - 1) * baseII
			exe, _, err := fig5Measure(d, trip, lv.cold)
			if err != nil {
				return nil, err
			}
			c := float64(d) / l
			if c > 1 {
				c = 1
			}
			out = append(out, Fig5Validation{
				Level:     lv.name,
				K:         k,
				D:         d,
				MeasuredL: l,
				Measured:  100 * (1 - exe/baseEXE),
				Predicted: 100 * (1 - (1-c)/float64(k)),
			})
		}
	}
	return out, nil
}

// fig5Measure compiles the validation loop with the given additional
// scheduled latency d (0 = baseline) and returns the steady-state EXE
// stall cycles for one execution plus the achieved II.
func fig5Measure(d int, trip int64, cold bool) (float64, int, error) {
	pipeline := true
	opts := compiler.Options{Pipeline: &pipeline}
	if d > 0 {
		opts.Core.LatencyTolerant = true
		opts.Core.ForceLoadLatency = d + 1 // base integer load latency is 1
	}
	c, err := compiler.Compile(context.Background(), fig5Loop(128), opts)
	if err != nil {
		return 0, 0, err
	}
	runner := sim.NewRunner(sim.DefaultConfig())
	mem := interp.NewMemory()
	if !cold {
		// Warm the working set once so the measured run hits the intended
		// level.
		if _, err := runner.Run(c.Program, trip, mem); err != nil {
			return 0, 0, err
		}
	}
	r, err := runner.Run(c.Program, trip, mem)
	if err != nil {
		return 0, 0, err
	}
	return float64(r.Acct.ExeBubble), c.Kernel.FinalII, nil
}
