package ltsp

// Library-health benchmarks on the running example; the paper's tables
// and figures are benchmarked in experiments_bench_test.go.

import (
	"testing"
)

// BenchmarkCompileLoop measures raw compiler throughput on the running
// example (not a paper table; a library-health metric).
func BenchmarkCompileLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, _, _ := buildExample(HintL3)
		if _, err := Compile(l, Options{Mode: ModeNone, Prefetch: true, LatencyTolerant: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateKernel measures simulator throughput (cycles simulated
// per wall-clock second) on the running example.
func BenchmarkSimulateKernel(b *testing.B) {
	l, src, _ := buildExample(HintL2)
	c, err := Compile(l, Options{Mode: ModeHLO, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory()
	for i := int64(0); i < 4096; i++ {
		mem.Store(src+4*i, 4, i)
	}
	runner := NewRunner(nil)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		r, err := runner.Run(c.Program, 4096, mem)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkSimulateCold measures what one simulate request costs from
// nothing: a fresh runner (cold hierarchy) and one execution of the
// running example at trip 128. Its B/op is the memory a cold simulate
// pays for, which benchguard bounds as cold_sim_bytes.
func BenchmarkSimulateCold(b *testing.B) {
	l, src, _ := buildExample(HintL2)
	c, err := Compile(l, Options{Mode: ModeHLO, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory()
	for i := int64(0); i < 128; i++ {
		mem.Store(src+4*i, 4, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(nil).Run(c.Program, 128, mem); err != nil {
			b.Fatal(err)
		}
	}
}
