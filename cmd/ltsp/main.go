// Command ltsp compiles one of the benchmark-model loops with the
// latency-tolerant software pipeliner and prints the HLO prefetcher's
// decisions, the II/stage structure, per-load scheduling reports and the
// kernel listing (paper Figs. 3/6 style).
//
// Usage:
//
//	ltsp -list
//	ltsp -loop 429.mcf/refresh_potential -mode hlo -tolerant
//	ltsp -loop example -mode all-l3 -tolerant
//	ltsp -loop example -explain            # why each decision was made
//	ltsp -loop example -explain-json       # the same trace as JSON events
//
// Client mode submits the loop to a running ltspd daemon through the
// resilient ltspclient package (typed errors, retries with backoff
// honoring Retry-After, deadline propagation, optional hedging), and
// -dump writes the wire-format request for use with curl or a loop file:
//
//	ltsp -loop example -server http://localhost:8347 -sim-trip 1000
//	ltsp -loop example -server http://localhost:8347 -retries 5 -hedge 100ms
//	ltsp -loop example -dump request.json
//	ltsp -loop-file request.json -server http://localhost:8347
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/repro"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
	"ltsp/ltspclient"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available loops")
		loopName = flag.String("loop", "example", "loop to compile: 'example' or <benchmark>/<loop>")
		mode     = flag.String("mode", "hlo", "hint mode: none | all-l3 | all-fp-l2 | hlo")
		tolerant = flag.Bool("tolerant", true, "enable latency-tolerant pipelining")
		prefetch = flag.Bool("prefetch", true, "enable the software prefetcher")
		trip     = flag.Float64("trip", 100, "compile-time trip-count estimate")
		backendF = flag.String("backend", "heuristic", "scheduler backend: heuristic | exact | oracle")
		serverTo = flag.String("server", "", "submit to a running ltspd daemon at this base URL instead of compiling in-process")
		loopFile = flag.String("loop-file", "", "read the compile request from this wire-format JSON file (client mode)")
		dump     = flag.String("dump", "", "write the wire-format compile request to this file ('-' = stdout) and exit")
		simTrip  = flag.Int64("sim-trip", 0, "in client mode, also simulate the compiled artifact for this trip count")
		explain  = flag.Bool("explain", false, "print the pipeliner's decision trace (classification, II search, fallbacks)")
		explainJ = flag.Bool("explain-json", false, "print the decision trace as JSON events")
		verifyF  = flag.Bool("verify", false, "independently verify the compiled kernel: structural schedule checks plus the semantic differential oracle")
		reproF   = flag.String("repro", "", "replay a repro bundle written by ltspd (-repro-dir) and report whether the failure reproduces")

		// Client resilience flags, mapped 1:1 onto ltspclient.Config.
		retries     = flag.Int("retries", 3, "client mode: max retries of transient failures (ltspclient MaxRetries)")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "client mode: base retry backoff (ltspclient BackoffBase)")
		retryBudget = flag.Duration("retry-budget", 10*time.Second, "client mode: total backoff sleep budget (ltspclient BackoffBudget)")
		reqTimeout  = flag.Duration("req-timeout", 30*time.Second, "client mode: per-attempt timeout, propagated to the server as its deadline (ltspclient RequestTimeout)")
		hedge       = flag.Duration("hedge", 0, "client mode: hedge compile requests after this delay, 0 = off (ltspclient HedgeDelay)")
		traceReq    = flag.Bool("trace", false, "client mode: span-trace the request end to end and print the merged client+server timeline")
	)
	flag.Parse()

	if *reproF != "" {
		if err := replayBundle(*reproF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("example                      (the paper's running example, Fig. 1)")
		for _, b := range workload.All() {
			for i := range b.Loops {
				fmt.Printf("%s/%s\n", b.Name, b.Loops[i].Name)
			}
		}
		return
	}

	hintMode, err := wire.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	backend, err := wire.ParseBackend(*backendF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := ltsp.Options{
		Mode:            hintMode,
		Prefetch:        *prefetch,
		LatencyTolerant: *tolerant,
		BoostDelinquent: *tolerant,
		TripEstimate:    *trip,
		Backend:         backend,
	}

	if *dump != "" {
		if err := dumpRequest(*loopName, opts, *dump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *serverTo != "" {
		client, err := ltspclient.New(ltspclient.Config{
			BaseURL:        *serverTo,
			MaxRetries:     *retries,
			BackoffBase:    *backoff,
			BackoffBudget:  *retryBudget,
			RequestTimeout: *reqTimeout,
			HedgeDelay:     *hedge,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runClient(client, *loopName, *loopFile, opts, *simTrip, *explain || *explainJ, *traceReq); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	l, err := findLoop(*loopName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("=== source loop ===")
	fmt.Print(l.String())
	if *explain || *explainJ {
		opts.Trace = ltsp.NewTrace()
	}
	opts.Verify = *verifyF
	c, err := ltsp.Compile(l, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	rep := c.HLO
	fmt.Printf("\n=== HLO prefetcher (mode %s, IIest=%d) ===\n", hintMode, rep.IIEst)
	for _, r := range rep.Refs {
		in := l.Body[r.ID]
		fmt.Printf("  body[%2d] %-34s hint=%-4s heuristic=%-16s", r.ID, trunc(in.String(), 34), r.Hint, r.Heuristic)
		if r.Distance > 0 {
			fmt.Printf(" prefetch-distance=%d", r.Distance)
			if r.L2Only {
				fmt.Print(" (L2 only)")
			}
		}
		fmt.Println()
	}
	fmt.Printf("  %d prefetches inserted, %d hints set\n", rep.PrefetchesAdded, rep.HintsSet)

	fmt.Printf("\n=== pipeliner (backend %s) ===\n", c.Backend)
	if c.Pipelined {
		fmt.Printf("  Resource II = %d, Recurrence II = %d, achieved II = %d, stages = %d\n",
			c.ResII, c.RecII, c.II, c.Stages)
	} else {
		fmt.Println("  not pipelined: compiled to the sequential fallback schedule")
	}
	if c.ProvenII {
		fmt.Println("  (achieved II is provably optimal)")
	}
	if c.LatencyReduced {
		fmt.Println("  (fallback: non-critical latencies reduced to base for register allocation)")
	}
	for _, lr := range c.Loads {
		class := "non-critical"
		if lr.Critical {
			class = "critical"
		}
		fmt.Printf("  load body[%2d]: %-12s base=%2d scheduled=%2d d=%2d k=%d hint=%s\n",
			lr.ID, class, lr.BaseLat, lr.SchedLat, lr.ExtraD, lr.ClusterK, lr.Hint)
	}
	if c.Pipelined {
		st := c.Reg
		fmt.Printf("  registers: GR %d (rot %d), FR %d (rot %d), PR %d (rot %d)\n",
			st.TotalGR(), st.RotGR, st.TotalFR(), st.RotFR, st.TotalPR(), st.RotPR)
	}

	if *verifyF {
		// Compile ran both checks; a failure was its error.
		fmt.Printf("\n=== verification ===\n")
		if c.Pipelined {
			fmt.Println("  structural: dependences, resources and register lifetimes re-derived and checked")
		} else {
			fmt.Println("  structural: compiled sequentially, no modulo schedule to check")
		}
		fmt.Println("  semantic: kernel matches the reference interpreter on seeded random inputs")
	}

	if *explain {
		fmt.Printf("\n=== decision trace ===\n")
		if err := opts.Trace.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "explain:", err)
			os.Exit(1)
		}
	}
	if *explainJ {
		data, err := json.MarshalIndent(opts.Trace, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "explain-json:", err)
			os.Exit(1)
		}
		fmt.Printf("\n=== decision trace (JSON) ===\n%s\n", data)
	}

	fmt.Printf("\n=== kernel ===\n")
	fmt.Print(c.Program.Listing())
	if c.Pipelined && c.Stages <= 8 {
		fmt.Printf("\n=== conceptual pipeline (Figs. 2/4) ===\n")
		fmt.Print(c.Diagram(5))
	}
}

func findLoop(name string) (*ir.Loop, error) {
	if name == "example" {
		return exampleLoop(), nil
	}
	parts := strings.SplitN(name, "/", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("loop %q: want 'example' or <benchmark>/<loop>", name)
	}
	b := workload.ByName(parts[0])
	if b == nil {
		return nil, fmt.Errorf("no benchmark %q", parts[0])
	}
	for i := range b.Loops {
		if b.Loops[i].Name == parts[1] {
			return b.Loops[i].Gen(), nil
		}
	}
	return nil, fmt.Errorf("benchmark %s has no loop %q", parts[0], parts[1])
}

// dumpRequest writes the wire-format compile request for the named loop.
func dumpRequest(loopName string, opts ltsp.Options, path string) error {
	l, err := findLoop(loopName)
	if err != nil {
		return err
	}
	req, err := wire.NewCompileRequest(l, opts)
	if err != nil {
		return err
	}
	data, err := req.Canonical()
	if err != nil {
		return err
	}
	if path == "-" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runClient submits a compile request (from a loop file or a named loop)
// to a running ltspd daemon through ltspclient — which retries transient
// failures and propagates deadlines — and prints the JSON responses.
// With explain it also fetches the stored decision trace; with traceReq
// the whole call runs under a span trace and the merged client+server
// timeline is printed at the end.
func runClient(client *ltspclient.Client, loopName, loopFile string, opts ltsp.Options, simTrip int64, explain, traceReq bool) error {
	var req *wire.CompileRequest
	if loopFile != "" {
		data, err := os.ReadFile(loopFile)
		if err != nil {
			return err
		}
		req = &wire.CompileRequest{}
		if err := json.Unmarshal(data, req); err != nil {
			return fmt.Errorf("%s: %v", loopFile, err)
		}
	} else {
		l, err := findLoop(loopName)
		if err != nil {
			return err
		}
		req, err = wire.NewCompileRequest(l, opts)
		if err != nil {
			return err
		}
	}

	ctx := context.Background()
	var ttr *telemetry.Trace
	if traceReq {
		ttr = telemetry.New("")
		ctx = telemetry.WithSpan(ctx, ttr, nil)
	}
	compiled, err := client.Compile(ctx, req)
	if err != nil {
		return err
	}
	if err := printJSON(compiled); err != nil {
		return err
	}

	if explain {
		trace, err := client.Trace(ctx, compiled.Hash)
		if err != nil {
			return err
		}
		if err := printJSON(trace); err != nil {
			return err
		}
	}

	if simTrip > 0 {
		simResp, err := client.Simulate(ctx, &wire.SimulateRequest{
			Version: wire.Version, Hash: compiled.Hash, Trip: simTrip,
		})
		if err != nil {
			return err
		}
		if err := printJSON(simResp); err != nil {
			return err
		}
	}
	if traceReq {
		if err := printRequestTrace(client, ttr); err != nil {
			return err
		}
	}
	return nil
}

// replayBundle re-runs a repro bundle captured by ltspd and reports
// whether the recorded failure still reproduces offline.
func replayBundle(path string) error {
	b, err := repro.Load(path)
	if err != nil {
		return err
	}
	fmt.Printf("bundle: kind=%s minimized=%v", b.Kind, b.Minimized)
	if b.Minimized {
		fmt.Printf(" (body %d -> %d instructions)", b.OrigBodyLen, b.MinBodyLen)
	}
	fmt.Println()
	if b.PanicValue != "" {
		fmt.Printf("recorded panic: %s\n", b.PanicValue)
	}
	if b.Error != "" {
		fmt.Printf("recorded error: %s\n", b.Error)
	}
	res, err := b.Replay()
	if err != nil {
		return err
	}
	if res.Reproduced {
		fmt.Printf("replay: failure REPRODUCED: %s\n", res.Detail)
		return nil
	}
	fmt.Printf("replay: not reproduced: %s\n", res.Detail)
	return nil
}

func printJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// exampleLoop is the paper's Fig. 1 running example with an L3 hint on the
// load.
func exampleLoop() *ir.Loop {
	l := ir.NewLoop("L1")
	r4, r5, r6, r7, r9 := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(r4, r5, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	ld.Mem.Hint = ir.HintL3
	ld.Comment = "v = a[i]"
	l.Append(ld)
	l.Append(ir.Add(r7, r4, r9))
	st := ir.St(r6, r7, 4, 4)
	st.Comment = "b[i] = v + 1"
	l.Append(st)
	l.Init(r5, 0x100000)
	l.Init(r6, 0x200000)
	l.Init(r9, 1)
	l.LiveOut = []ir.Reg{r5, r6}
	return l
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
