// Command perfbench is the ltsp benchmark. It runs one of four seeded
// workloads as a closed loop of fine-grained ops inside one process —
// compile, repro, serve-hit, serve-mixed — and prints every metric by
// name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
// twice: half the time untraced (the reference), then the same ops again
// with per-layer timing taken around calls into each module's public
// functions from this package's own files, and reports the per-layer
// metrics. See README.md for the workloads and the metric catalog.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// setups is how many fresh processes set the workload up before a
	// run; setup_s is their median.
	setups int
	setup  func(seed int64) (bench, error)
}

// bench is a workload set up and ready to run ops.
type bench interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op runs op i of the op list (the list repeats) from client c and
	// returns the latency of its timed call. A non-nil error marks the op
	// failed: a non-2xx status, a shed, a batch item error, a verifier
	// rejection or a result that differs from expected.txt. t is nil in
	// untraced phases.
	op(c int, i int64, t *tracer) (time.Duration, error)
	// counters returns the program's own cumulative counters (for
	// example the server's /metrics), diffed over the untraced phase.
	counters() map[string]float64
	// digest identifies the op list: the same seed gives the same digest.
	digest() string
	close() error
}

// passer is a bench whose op list is short enough that a run goes through
// it whole several times; its rates are taken per pass of the list.
type passer interface {
	passLen() int
}

var workloads = []workloadDef{
	{name: "compile", setups: 5, setup: setupCompile,
		why: "ltsp.Compile with default options; the compiler phases do all the work"},
	{name: "repro", setups: 5, setup: setupRepro,
		why: "experiments.EvalLoop on (loop, config) pairs weighted like the full ltsp-bench run; the simulator dominates"},
	{name: "serve-hit", setups: 5, setup: setupServeHit,
		why: "in-process repeat compile requests that fit the hot map; decode, hash, caches and encode only"},
	{name: "serve-mixed", setups: 5, setup: setupServeMixed,
		why: "in-process replay of ltsp-bench -server sweeps and ltsp -server compile+simulate sessions over a store"},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	lat       []uint32 // op latencies in ns, all clients, sorted
	byOp      []uint32 // op latencies in ns by op index
	attempted int64
	failed    int64
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	counters  map[string]float64 // program counter deltas
	// windows holds, per rateWindow of the phase, the ops completed per
	// second and the CPU ms per op.
	windows [][2]float64
	// passes holds the same rates per complete pass of a passer's op list.
	passes [][2]float64
}

// rateWindow is the window the throughput and CPU medians are taken over.
const rateWindow = 2 * time.Second

func (p *phase) opsPerSec() float64 { return float64(p.attempted) / p.wall.Seconds() }

// steadyRates returns the median of ops per second and of CPU ms per op
// over the phase's complete passes of the op list when there are two or
// more, else over its windows: the VM this benchmark runs on changes
// speed for seconds at a time, and a median ignores those seconds. Every
// pass runs the same ops, so pass rates do not depend on which ops fell
// into the interval, as window rates of ops with very unequal costs do.
// Phases with fewer than five windows use the whole-phase rates.
func (p *phase) steadyRates() (opsPerSec, cpuMsPerOp float64) {
	var rates [][2]float64
	switch {
	case len(p.passes) >= 2:
		rates = p.passes
	case len(p.windows) >= 5:
		rates = p.windows
	default:
		return p.opsPerSec(), p.cpu.Seconds() * 1e3 / float64(p.attempted)
	}
	ops := make([]float64, len(rates))
	cpu := make([]float64, len(rates))
	for i, w := range rates {
		ops[i], cpu[i] = w[0], w[1]
	}
	return median(ops), median(cpu)
}

// passMark is the wall and CPU clock when an op list pass started.
type passMark struct {
	t   time.Time
	cpu time.Duration
}

// passRates returns, for each pass of n ops that ended before the last
// mark, the ops per second and the CPU ms per op.
func passRates(marks []passMark, n int64) [][2]float64 {
	var out [][2]float64
	for k := 1; k < len(marks); k++ {
		wall := marks[k].t.Sub(marks[k-1].t).Seconds()
		cpu := (marks[k].cpu - marks[k-1].cpu).Seconds() * 1e3
		out = append(out, [2]float64{float64(n) / wall, cpu / float64(n)})
	}
	return out
}

// sampleWindows records the rates of each window from the completed-op
// count until stop is closed, then sends them on out.
func sampleWindows(done *atomic.Int64, stop <-chan struct{}, out chan<- [][2]float64) {
	tick := time.NewTicker(rateWindow)
	defer tick.Stop()
	var w [][2]float64
	lastOps, lastCPU, lastT := int64(0), cpuTime(), time.Now()
	for {
		select {
		case <-stop:
			out <- w
			return
		case now := <-tick.C:
			ops, cpu := done.Load(), cpuTime()
			if n := ops - lastOps; n > 0 {
				w = append(w, [2]float64{float64(n) / now.Sub(lastT).Seconds(), (cpu - lastCPU).Seconds() * 1e3 / float64(n)})
			}
			lastOps, lastCPU, lastT = ops, cpu, now
		}
	}
}

// runPhase runs every client of b in a closed loop for the given time,
// or until maxOps ops when maxOps > 0. Each client takes the next op
// index when it is free; the op list is walked from its start.
func runPhase(b bench, seconds float64, maxOps int64, t *tracer) *phase {
	var next atomic.Int64
	var passLen int64
	if pb, ok := b.(passer); ok {
		passLen = int64(pb.passLen())
	}
	var marksMu sync.Mutex
	var marks []passMark
	n := b.clients()
	lats := make([][]uint32, n)
	idxs := make([][]int64, n)
	fails := make([]int64, n)
	errs := make([]error, n)
	before := b.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var done atomic.Int64
	stop, windows := make(chan struct{}), make(chan [][2]float64)
	go sampleWindows(&done, stop, windows)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]uint32, 0, 1<<16)
			idx := make([]int64, 0, 1<<16)
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if maxOps > 0 && i >= maxOps {
					break
				}
				if passLen > 0 && i%passLen == 0 {
					marksMu.Lock()
					marks = append(marks, passMark{time.Now(), cpuTime()})
					marksMu.Unlock()
				}
				d, err := b.op(c, i, t)
				done.Add(1)
				lat = append(lat, uint32(min(d, math.MaxUint32)))
				idx = append(idx, i)
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				}
			}
			lats[c], idxs[c] = lat, idx
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	close(stop)
	p.windows = <-windows
	p.passes = passRates(marks, passLen)
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	for c := 0; c < n; c++ {
		p.lat = append(p.lat, lats[c]...)
		p.failed += fails[c]
		if p.firstErr == nil {
			p.firstErr = errs[c]
		}
	}
	p.attempted = int64(len(p.lat))
	// Clients take op indices in turn, so the phase ran ops 0..attempted-1.
	p.byOp = make([]uint32, p.attempted)
	for c := 0; c < n; c++ {
		for k, i := range idxs[c] {
			p.byOp[i] = lats[c][k]
		}
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	if after := b.counters(); after != nil {
		p.counters = map[string]float64{}
		for k, v := range after {
			p.counters[k] = v - before[k]
		}
	}
	return p
}

// quantile returns the nearest-rank q-quantile of sorted latencies in µs.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return float64(sorted[k]) / 1e3
}

func meanUS(sorted []uint32) float64 {
	var s float64
	for _, v := range sorted {
		s += float64(v)
	}
	return s / float64(len(sorted)) / 1e3
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report collects the printed metrics in order.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) add(name, unit string, v float64) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// cold measures setup_s in fresh processes of this program; without
	// it setup_s is this process's own set-up.
	cold bool
}

// runOutput is everything one invocation prints.
type runOutput struct {
	facts [][2]string
	rep   report
	res   result
}

func run(cfg runConfig) (*runOutput, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var setups []float64
	if cfg.cold {
		if setups, err = coldSetups(w, cfg.seed); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	b, err := w.setup(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	runtime.GC()
	own := time.Since(start).Seconds()
	defer b.close()
	if len(setups) == 0 {
		setups = []float64{own}
	}

	out := &runOutput{}
	out.facts = runFacts(w, cfg, b)
	out.facts = append(out.facts, [2]string{"setups", fmt.Sprintf("%d in fresh processes, median %.4f s, all %v; this process %.4f s",
		len(setups), median(setups), roundAll(setups), own)})
	if !cfg.trace {
		p := runPhase(b, cfg.seconds, 0, nil)
		addEndToEnd(&out.rep, p, median(setups))
		out.facts = append(out.facts, phaseFacts("timed phase", p)...)
		out.res = resultOf(p, nil, out.rep.m)
		return out, nil
	}
	// The traced phase repeats the reference phase's ops where time
	// allows, so their throughputs compare like for like.
	ref := runPhase(b, cfg.seconds/2, 0, nil)
	t := newTracer()
	tp := runPhase(b, cfg.seconds/2, ref.attempted, t)
	ls := layerSet{w: w.name, ref: ref, traced: tp, t: t}
	ls.report(&out.rep)
	out.facts = append(out.facts, phaseFacts("untraced reference phase", ref)...)
	out.facts = append(out.facts, phaseFacts("traced phase", tp)...)
	if path, err := t.writeSpans(w.name, cfg.seed); err == nil {
		out.facts = append(out.facts, [2]string{"spans written to", path})
	} else {
		out.facts = append(out.facts, [2]string{"spans not written", err.Error()})
	}
	out.res = resultOf(ref, tp, out.rep.m)
	return out, nil
}

// coldSetups sets the workload up w.setups times, each in a fresh process
// of this program, and returns the time from starting each process to its
// report that the first op could start: exec, runtime and package
// initialization, input generation, warm-up and the final GC.
func coldSetups(w *workloadDef, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 0; k < w.setups; k++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		if werr := cmd.Wait(); rerr != nil || werr != nil || line != "ready\n" {
			return nil, fmt.Errorf("%s: set-up process: read %q (%v), exit %v", w.name, line, rerr, werr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupOnly is the child side of coldSetups: set up, report, clean up.
func setupOnly(cfg runConfig) error {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	b, err := w.setup(cfg.seed)
	if err != nil {
		return err
	}
	runtime.GC()
	fmt.Println("ready")
	return b.close()
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

// addEndToEnd reports the untraced end-to-end metrics of a phase.
func addEndToEnd(r *report, p *phase, setupS float64) {
	ops, cpu := p.steadyRates()
	r.add("setup_s", "s", setupS)
	r.add("ops_per_s", "1/s", ops)
	r.add("op_p50_us", "us", quantile(p.lat, 0.50))
	r.add("op_p99_us", "us", quantile(p.lat, 0.99))
	r.add("cpu_ms_per_op", "ms", cpu)
}

func resultOf(p, traced *phase, m map[string]metric) result {
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: m}
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func phaseFacts(label string, p *phase) [][2]string {
	beyond := int64(len(p.lat)) - int64(math.Ceil(0.99*float64(len(p.lat))))
	f := [][2]string{
		{label, fmt.Sprintf("%d ops in %.3f s, %d failed (error_rate %.6f), %d samples beyond p99",
			p.attempted, p.wall.Seconds(), p.failed, float64(p.failed)/float64(max(p.attempted, 1)), beyond)},
	}
	if len(p.passes) > 0 {
		f = append(f, [2]string{label + " passes", fmt.Sprintf("%d complete passes of the op list", len(p.passes))})
	}
	if p.firstErr != nil {
		f = append(f, [2]string{"first failure", p.firstErr.Error()})
	}
	return f
}

// runFacts describes the machine and build the numbers came from.
func runFacts(w *workloadDef, cfg runConfig, b bench) [][2]string {
	return [][2]string{
		{"workload", w.name + ": " + w.why},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
		{"traced", fmt.Sprint(cfg.trace)},
		{"commit", commit()},
		{"go", runtime.Version()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"clients", fmt.Sprint(b.clients())},
		{"op list", b.digest()},
		{"store filesystem", storeFS()},
	}
}

// commit reads the checked-out commit from .git when the working
// directory is a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if id, err := os.ReadFile(".git/" + r); err == nil {
			return strings.TrimSpace(string(id))
		}
		return "unknown (" + r + ")"
	}
	return ref
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: compile, repro, serve-hit or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the op list is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured time in seconds")
	traceN := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	record := flag.String("record", "", "regenerate the expected-results file at this path and exit")
	setupOnlyF := flag.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (used to time set-up)")
	flag.Parse()
	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *setupOnlyF {
		if err := setupOnly(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *traceN == 1
	cfg.cold = true
	if cfg.seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range out.facts {
		fmt.Printf("# %-26s %s\n", f[0], f[1])
	}
	for _, name := range out.rep.names {
		m := out.rep.m[name]
		fmt.Printf("%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
