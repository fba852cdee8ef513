package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the per-layer timings of a traced phase: per-layer totals
// and call counts, plus the first maxSpans spans, written out at the end.
// Spans are recorded around calls into the program's public functions
// from this package; nothing inside the program is instrumented.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	sums  map[string]float64 // ns for timings, raw values for counts
	calls map[string]int64
	spans []spanRec
}

type spanRec struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

const maxSpans = 50000

func newTracer() *tracer {
	return &tracer{start: time.Now(), sums: map[string]float64{}, calls: map[string]int64{}}
}

// span records one timed call of layer name within op.
func (t *tracer) span(op int64, name, parent string, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.sums[name] += float64(d)
	t.calls[name]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{Op: op, Name: name, Parent: parent,
			Start: int64(start.Sub(t.start)), Dur: int64(d)})
	}
	t.mu.Unlock()
}

// add accumulates a count.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.calls[name]++
	t.mu.Unlock()
}

// opTracer is a tracer bound to one op; its methods are no-ops on nil.
type opTracer struct {
	t  *tracer
	op int64
}

func (o opTracer) since(name string, start time.Time) {
	if o.t != nil {
		o.t.span(o.op, name, "op", start, time.Since(start))
	}
}

func (o opTracer) add(name string, v float64) {
	if o.t != nil {
		o.t.add(name, v)
	}
}

// writeSpans dumps the retained spans as JSON into the temporary
// directory and returns the file's path.
func (t *tracer) writeSpans(workload string, seed int64) (string, error) {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-spans-%s-%d.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layerSet derives the per-layer metrics of a traced run from its
// untraced reference phase and its traced phase.
type layerSet struct {
	w      string
	ref    *phase
	traced *phase
	t      *tracer
}

func (ls layerSet) perOp(name string) float64 {
	return ls.t.sums[name] / float64(ls.traced.attempted)
}

func (ls layerSet) perOpUS(name string) float64 { return ls.perOp(name) / 1e3 }

func (ls layerSet) perCallUS(name string) float64 {
	if ls.t.calls[name] == 0 {
		return 0
	}
	return ls.t.sums[name] / float64(ls.t.calls[name]) / 1e3
}

// ratio divides, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (ls layerSet) ctr(name string) float64 { return ls.ref.counters[name] }

// layerMetric is one per-layer metric: the workloads it is measured on
// and how its value is derived. On other workloads it reads 0.
type layerMetric struct {
	name, unit string
	on         []string
	value      func(ls layerSet) float64
}

var (
	onAll     = []string{"compile", "repro", "serve-hit", "serve-mixed"}
	onCompile = []string{"compile"}
	onRepro   = []string{"repro"}
	onServe   = []string{"serve-hit", "serve-mixed"}
	onMixed   = []string{"serve-mixed"}
)

// compilePhases are the compile layers summed into compile.coverage, in
// pipeline order.
var compilePhases = []string{"hlo.apply_us", "ddg.build_us", "modsched.resmii_us", "ddg.recmii_us",
	"core.classify_us", "modsched.schedule_us", "regalloc.allocate_us", "core.codegen_us"}

// reproPhases are the repro layers summed into repro.coverage.
var reproPhases = []string{"workload.gen_us", "workload.initmem_us", "hlo.apply_us",
	"core.pipeline_us", "core.sequential_us", "sim.new_runner_us", "sim.run_us"}

// serverStages are the server span names whose self times are reported.
var serverStages = []string{"queue_wait", "mem_lookup", "disk_read", "compile", "verify", "write_through", "batch_item"}

func perOpUS(name string, on []string) layerMetric {
	return layerMetric{name, "us", on, func(ls layerSet) float64 { return ls.perOpUS(name) }}
}

func perCallUS(name string, on []string) layerMetric {
	return layerMetric{name, "us", on, func(ls layerSet) float64 { return ls.perCallUS(name) }}
}

func perOpCount(name string, on []string) layerMetric {
	return layerMetric{name, "count", on, func(ls layerSet) float64 { return ls.perOp(name) }}
}

func sumUS(ls layerSet, names []string) float64 {
	var s float64
	for _, n := range names {
		s += ls.perOpUS(n)
	}
	return s
}

// refOpUS is the mean latency of the program's own call (ltsp.Compile or
// experiments.EvalLoop) in the untraced reference phase, over the ops the
// traced phase repeated. The layer sums are timed on those same ops, so
// their ratio to it shows time the program spends outside the timed
// layers.
func refOpUS(ls layerSet) float64 { return meanUS(ls.ref.byOp[:ls.traced.attempted]) }

// handlerUS is the server's own handler time over the reference phase,
// from its latency histograms.
func handlerUS(ls layerSet) float64 {
	return (ls.ctr("compile_latency_ms") + ls.ctr("batch_latency_ms") + ls.ctr("simulate_latency_ms")) * 1e3
}

// lookups counts artifact requests: single compiles, batch items and
// simulates each resolve one artifact.
func lookups(ls layerSet) float64 {
	return ls.ctr("compile_requests") + ls.ctr("batch_items") + ls.ctr("simulate_requests")
}

// hotHits are compile requests answered from the prerendered hot map:
// every other compile request and batch item observes the mem_lookup
// stage once. Simulates by hash read the memory cache directly.
func hotHits(ls layerSet) float64 {
	return ls.ctr("compile_requests") + ls.ctr("batch_items") - ls.ctr("mem_lookups")
}

func layerCatalog() []layerMetric {
	c := []layerMetric{
		{"bench.ref_ops_per_s", "1/s", onAll, func(ls layerSet) float64 { return ls.ref.opsPerSec() }},
		{"bench.traced_ops_per_s", "1/s", onAll, func(ls layerSet) float64 { return ls.traced.opsPerSec() }},
		{"bench.tracing_overhead", "ratio", onAll, func(ls layerSet) float64 {
			return 1 - ls.traced.opsPerSec()/ls.ref.opsPerSec()
		}},
		{"go.allocs_per_op", "count", onAll, func(ls layerSet) float64 {
			return float64(ls.ref.mallocs) / float64(ls.ref.attempted)
		}},
		{"go.bytes_per_op", "bytes", onAll, func(ls layerSet) float64 {
			return float64(ls.ref.bytes) / float64(ls.ref.attempted)
		}},
		{"go.gc_cycles", "count/kop", onAll, func(ls layerSet) float64 {
			return float64(ls.ref.gcs) * 1e3 / float64(ls.ref.attempted)
		}},
		{"go.peak_rss_mb", "MB", onAll, func(layerSet) float64 { return peakRSSMB() }},
	}
	for _, n := range compilePhases {
		if n != "hlo.apply_us" {
			c = append(c, perOpUS(n, onCompile))
		}
	}
	c = append(c,
		perOpUS("hlo.apply_us", []string{"compile", "repro"}),
		layerMetric{"modsched.attempts", "count", onCompile, func(ls layerSet) float64 {
			return float64(ls.t.calls["modsched.schedule_us"]) / float64(ls.traced.attempted)
		}},
		layerMetric{"modsched.fail_share", "ratio", onCompile, func(ls layerSet) float64 {
			return ratio(ls.t.sums["modsched.fails"], float64(ls.t.calls["modsched.schedule_us"]))
		}},
		perOpCount("ltsp.ii_bumps", onCompile),
		layerMetric{"ltsp.latency_reduced_share", "ratio", onCompile, func(ls layerSet) float64 {
			return ls.perOp("ltsp.latency_reduced")
		}},
		perOpCount("ir.body_instrs", onCompile),
		perOpCount("ddg.edges", onCompile),
		layerMetric{"ltsp.compile_us", "us", onCompile, refOpUS},
		layerMetric{"compile.coverage", "ratio", onCompile, func(ls layerSet) float64 {
			return sumUS(ls, compilePhases) / refOpUS(ls)
		}},
		perCallUS("verify.us", onCompile),
	)
	for _, n := range reproPhases {
		if n != "hlo.apply_us" {
			c = append(c, perOpUS(n, onRepro))
		}
	}
	c = append(c,
		layerMetric{"sim.ns_per_cycle", "ns", onRepro, func(ls layerSet) float64 {
			return ratio(ls.t.sums["sim.run_us"], ls.t.sums["sim.cycles"])
		}},
		perOpCount("sim.runs", onRepro),
		perOpCount("sim.cycles", onRepro),
		perOpCount("cache.accesses", onRepro),
		layerMetric{"repro.eval_us", "us", onRepro, refOpUS},
		layerMetric{"repro.coverage", "ratio", onRepro, func(ls layerSet) float64 {
			return sumUS(ls, reproPhases) / refOpUS(ls)
		}},
	)
	for _, n := range []string{"wire.decode_json_us", "wire.decode_binary_us", "wire.hash_us",
		"wire.encode_json_us", "wire.encode_binary_us"} {
		c = append(c, perCallUS(n, onServe))
	}
	c = append(c,
		layerMetric{"server.hot_hit_share", "ratio", onServe, func(ls layerSet) float64 {
			return ratio(hotHits(ls), lookups(ls))
		}},
		layerMetric{"server.mem_hit_share", "ratio", onServe, func(ls layerSet) float64 {
			return ratio(ls.ctr("cache_hits")-hotHits(ls), lookups(ls))
		}},
		layerMetric{"server.disk_hit_share", "ratio", onServe, func(ls layerSet) float64 {
			return ratio(ls.ctr("disk_hits"), lookups(ls))
		}},
		layerMetric{"server.compile_share", "ratio", onServe, func(ls layerSet) float64 {
			return ratio(ls.ctr("compiles"), lookups(ls))
		}},
		layerMetric{"server.shed", "count", onServe, func(ls layerSet) float64 { return ls.ctr("shed") }},
		layerMetric{"server.timeouts", "count", onServe, func(ls layerSet) float64 { return ls.ctr("timeouts") }},
		layerMetric{"server.resp_bytes", "bytes", onServe, func(ls layerSet) float64 {
			return ls.ctr("resp_bytes") / float64(ls.ref.attempted)
		}},
		layerMetric{"serve.coverage", "ratio", onServe, func(ls layerSet) float64 {
			return handlerUS(ls) / (meanUS(ls.ref.lat) * float64(ls.ref.attempted))
		}},
		layerMetric{"store.writes", "count", onMixed, func(ls layerSet) float64 {
			return ls.ctr("store_writes") / float64(ls.ref.attempted)
		}},
		layerMetric{"provenance.records", "count", onMixed, func(ls layerSet) float64 {
			return ls.ctr("provenance_records") / float64(ls.ref.attempted)
		}},
	)
	for _, s := range serverStages {
		c = append(c, perOpUS("server."+s+"_us", onMixed))
	}
	c = append(c, layerMetric{"server.span_coverage", "ratio", onMixed, func(ls layerSet) float64 {
		return ratio(ls.t.sums["server.staged_ns"], ls.t.sums["server.root_ns"])
	}})
	return c
}

// report adds every catalog metric; those not measured on this workload
// read 0.
func (ls layerSet) report(r *report) {
	for _, m := range layerCatalog() {
		v := 0.0
		for _, w := range m.on {
			if w == ls.w {
				v = m.value(ls)
			}
		}
		r.add(m.name, m.unit, v)
	}
}
