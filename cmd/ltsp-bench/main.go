// Command ltsp-bench regenerates the paper's evaluation: every table and
// figure of the CGO 2008 paper "Latency-Tolerant Software Pipelining in a
// Production Compiler" has a corresponding experiment that prints the
// measured values next to the paper's reported ones.
//
// Usage:
//
//	ltsp-bench                 # run everything
//	ltsp-bench -run fig7       # one experiment (-help lists them)
//	ltsp-bench -json           # machine-readable results on stdout
//
// Remote mode sweeps the whole workload suite through a running ltspd
// daemon instead of compiling in-process, batched and retried by the
// resilient ltspclient package:
//
//	ltsp-bench -server http://localhost:8347
//	ltsp-bench -server http://localhost:8347 -retries 5 -req-timeout 1m
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"ltsp/internal/experiments"
	"ltsp/ltspclient"
)

// jsonRecord is one element of the -json output array. Result is the
// experiment's native result struct, whose fields carry both measured and
// paper-reported values.
type jsonRecord struct {
	Experiment  string  `json:"experiment"`
	WallSeconds float64 `json:"wall_seconds"`
	Result      any     `json:"result"`
}

func main() {
	exps := experiments.All()
	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.Name)
	}
	var run = flag.String("run", "all", "experiment to run: "+strings.Join(names, " | "))
	var jsonOut = flag.Bool("json", false, "emit machine-readable JSON results on stdout instead of text")
	var workers = flag.Int("workers", 0, "evaluation worker-pool width (0 = GOMAXPROCS, 1 = sequential)")
	var cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")

	// Remote mode, mapped 1:1 onto ltspclient.Config.
	var server = flag.String("server", "", "sweep the workload suite through a running ltspd daemon at this base URL instead of running experiments locally")
	var retries = flag.Int("retries", 3, "remote mode: max retries of transient failures (ltspclient MaxRetries)")
	var backoff = flag.Duration("backoff", 50*time.Millisecond, "remote mode: base retry backoff (ltspclient BackoffBase)")
	var retryBudget = flag.Duration("retry-budget", 10*time.Second, "remote mode: total backoff sleep budget (ltspclient BackoffBudget)")
	var reqTimeout = flag.Duration("req-timeout", 30*time.Second, "remote mode: per-attempt timeout, propagated to the server as its deadline (ltspclient RequestTimeout)")
	var batchTimeout = flag.Duration("batch-timeout", 5*time.Minute, "remote mode: per-batch timeout (ltspclient BatchTimeout) and overall sweep deadline")
	var wireMode = flag.String("wire", "json", "remote mode: transfer encoding, json | binary (ltspclient Wire)")
	flag.Parse()

	if *server != "" {
		client, err := ltspclient.New(ltspclient.Config{
			BaseURL:        *server,
			MaxRetries:     *retries,
			BackoffBase:    *backoff,
			BackoffBudget:  *retryBudget,
			RequestTimeout: *reqTimeout,
			BatchTimeout:   *batchTimeout,
			Wire:           *wireMode,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runRemote(client, *batchTimeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *workers > 0 {
		experiments.SetWorkers(*workers)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(n)] = true
	}
	all := want["all"]

	var records []jsonRecord
	ran := 0
	for _, e := range exps {
		if !all && !want[e.Name] {
			continue
		}
		start := time.Now()
		res, err := e.Run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *jsonOut {
			records = append(records, jsonRecord{
				Experiment:  e.Name,
				WallSeconds: elapsed.Seconds(),
				Result:      res,
			})
		} else {
			fmt.Printf("──── %s (%.1fs) %s\n\n%s\n", e.Name, elapsed.Seconds(),
				strings.Repeat("─", 50), res)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run=%s\n", *run)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
	}
}
