package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"strings"
	"testing"

	"ltsp"
	"ltsp/internal/golden"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/profile"
	"ltsp/internal/sim"
	"ltsp/internal/workload"
)

const simGoldenFile = "testdata/sim_golden.txt"

// goldenConfig is one compiler configuration the fence simulates every
// workload loop under.
type goldenConfig struct {
	name     string
	mode     hlo.HintMode
	tolerant bool
	ozq      int // OzQ capacity override; 0 keeps the architectural 48
}

var goldenConfigs = []goldenConfig{
	{name: "pgo-baseline", mode: hlo.ModeNone},
	{name: "hlo-lt", mode: hlo.ModeHLO, tolerant: true},
	{name: "alll3-lt-ozq12", mode: hlo.ModeAllL3, tolerant: true, ozq: 12},
}

// goldenTrips is the trip sequence each (loop, config) runner executes
// on one memory; 0 stands for a DropCaches between two runs.
var goldenTrips = []int64{1, 7, 200, 0, 64, 1000}

// TestSimGolden fences the simulator over every workload loop: one row
// per loop and configuration, with the run-by-run cycles, accounting,
// kernel iterations, OzQ peak, bank conflicts and demand loads by level
// as readable fields, and a digest of the per-site maps, the final
// registers and LC/EC of each run and the memory after the sequence.
// Two more rows pin the Trace and Timeline bytes of the running example.
// Run with -update after an intended change.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload loop")
	}
	var rows []golden.Row
	for _, b := range workload.All() {
		for i := range b.Loops {
			spec := &b.Loops[i]
			for _, gc := range goldenConfigs {
				rows = append(rows, simRow(t, b.Name+"/"+spec.Name, spec, gc))
			}
		}
	}
	rows = append(rows, exampleTraceRows(t)...)
	golden.Check(t, simGoldenFile, rows)
}

// simRow compiles spec under gc the way the experiments do with PGO and
// runs the trip sequence on one runner.
func simRow(t *testing.T, key string, spec *workload.LoopSpec, gc goldenConfig) golden.Row {
	t.Helper()
	prog, cfg := compileGolden(t, key, spec, gc)
	runner := sim.NewRunner(cfg)
	mem := spec.NewMemory()

	cols := map[string][]string{}
	order := []string{"cycles", "unstalled", "exe", "l1dfpu", "rse", "flush", "fe", "iters", "ozq_peak", "bank", "levels"}
	h := sha256.New()
	for _, trip := range goldenTrips {
		if trip == 0 {
			runner.DropCaches()
			continue
		}
		r, err := runner.Run(prog, trip, mem)
		if err != nil {
			t.Fatalf("%s %s trip %d: %v", key, gc.name, trip, err)
		}
		a := r.Acct
		lv := make([]string, len(r.LoadsByLevel))
		for i, n := range r.LoadsByLevel {
			lv[i] = fmt.Sprint(n)
		}
		for i, v := range []any{r.Cycles, a.Unstalled, a.ExeBubble, a.L1DFPUBubble, a.RSEBubble,
			a.FlushBubble, a.FEBubble, r.KernelIters, r.OzQPeak, r.BankConflictCount, strings.Join(lv, ":")} {
			cols[order[i]] = append(cols[order[i]], fmt.Sprint(v))
		}
		if a.Total != r.Cycles {
			t.Errorf("%s %s trip %d: Acct.Total %d != Cycles %d", key, gc.name, trip, a.Total, r.Cycles)
		}
		digestRun(h, r)
	}
	digestMemory(h, mem)
	fields := make([]golden.Field, len(order))
	for i, name := range order {
		fields[i] = golden.F(name, strings.Join(cols[name], "/"))
	}
	return golden.Row{Key: key + "|" + gc.name, Fields: fields, Digest: fmt.Sprintf("%x", h.Sum(nil))}
}

// compileGolden compiles spec under gc the way the experiments do with
// PGO and returns the program with its simulation config.
func compileGolden(t *testing.T, key string, spec *workload.LoopSpec, gc goldenConfig) (*interp.Program, sim.Config) {
	t.Helper()
	model := machine.Itanium2()
	if gc.ozq > 0 {
		model.OzQCapacity = gc.ozq
	}
	est := profile.PGO(spec.Train)
	opts := ltsp.Options{Model: model, Mode: gc.mode, Prefetch: true,
		LatencyTolerant: gc.tolerant, BoostDelinquent: gc.tolerant, TripEstimate: est.Avg}
	if est.Avg < 2 {
		off := false
		opts.Pipeline = &off
	}
	c, err := ltsp.Compile(spec.Gen(), opts)
	if err != nil {
		t.Fatalf("%s %s: %v", key, gc.name, err)
	}
	cfg := sim.DefaultConfig()
	cfg.Model = model
	cfg.RSECyclesPerExec = int64(0.5 * float64(c.Reg.TotalGR()))
	return c.Program, cfg
}

// digestRun hashes what the readable fields leave out: the cache stats,
// OzQ stalls, the five per-site maps (nil and empty told apart) and the
// final architectural registers.
func digestRun(h hash.Hash, r *sim.Result) {
	w := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	cs := r.Cache
	w(cs.Accesses, cs.HitsL1, cs.HitsL2, cs.HitsL3, cs.Memory, cs.Merges, cs.Prefetches, r.OzQFullStalls)
	sites := func(m map[int]int64) {
		if m == nil {
			w(-1)
			return
		}
		w(int64(len(m)))
		for _, id := range sortedKeys(m) {
			w(int64(id), m[id])
		}
	}
	if r.LoadSiteLevels == nil {
		w(-1)
	} else {
		w(int64(len(r.LoadSiteLevels)))
		for _, id := range sortedKeys(r.LoadSiteLevels) {
			w(int64(id))
			w(r.LoadSiteLevels[id][:]...)
		}
	}
	sites(r.LoadSiteLatency)
	sites(r.LoadSiteStalls)
	sites(r.LoadSiteStallEvents)
	sites(r.LoadSiteOzQStalls)
	st := r.State
	w(st.GR[:]...)
	for _, f := range st.FR {
		w(int64(math.Float64bits(f)))
	}
	for _, p := range st.PR {
		if p {
			w(1)
		} else {
			w(0)
		}
	}
	w(st.LC, st.EC)
}

// digestMemory hashes every page of mem in page order.
func digestMemory(h hash.Hash, mem *interp.Memory) {
	snap := mem.Snapshot()
	for _, pn := range sortedKeys(snap) {
		binary.Write(h, binary.LittleEndian, pn)
		p := snap[pn]
		h.Write(p[:])
	}
}

func sortedKeys[K int | int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// exampleTraceRows runs the paper's running example (a copy-add loop,
// HLO latency-tolerant) with a Trace writer and a Timeline and pins the
// bytes of both.
func exampleTraceRows(t *testing.T) []golden.Row {
	t.Helper()
	const src, dst = 0x10000, 0x20000
	c, err := ltsp.Compile(copyAddLoop(src, dst, 5), ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	mem := interp.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.Store(src+4*i, 4, i)
	}
	var trace, timeline bytes.Buffer
	cfg := sim.DefaultConfig()
	cfg.Trace = &trace
	cfg.Timeline = obs.NewTimeline(0)
	if _, err := sim.NewRunner(cfg).Run(c.Program, 40, mem); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Timeline.WriteJSON(&timeline); err != nil {
		t.Fatal(err)
	}
	row := func(key string, b []byte) golden.Row {
		return golden.Row{Key: key, Fields: []golden.Field{golden.F("bytes", len(b))},
			Digest: fmt.Sprintf("%x", sha256.Sum256(b))}
	}
	return []golden.Row{row("example|trace", trace.Bytes()), row("example|timeline", timeline.Bytes())}
}

// copyAddLoop is the paper's running example: dst[i] = src[i] + k over
// 4-byte elements, with the L2 hint on the load.
func copyAddLoop(src, dst, k int64) *ir.Loop {
	l := ir.NewLoop("copyadd")
	v, bs, bd, r, kr := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	ld.Mem.Hint = ir.HintL2
	l.Append(ld)
	l.Append(ir.Add(r, v, kr))
	st := ir.St(bd, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(st)
	l.Init(bs, src)
	l.Init(bd, dst)
	l.Init(kr, k)
	l.LiveOut = []ir.Reg{bs, bd}
	return l
}
