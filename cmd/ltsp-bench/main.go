// Command ltsp-bench regenerates the paper's evaluation: every table and
// figure of the CGO 2008 paper "Latency-Tolerant Software Pipelining in a
// Production Compiler" has a corresponding experiment that prints the
// measured values next to the paper's reported ones.
//
// Usage:
//
//	ltsp-bench                 # run everything
//	ltsp-bench -run fig7       # one experiment: fig5 fig7 fig8 fig9 fig10
//	                           # casestudy regstats compiletime
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

// fig5Out bundles the analytic model with its simulator validation so the
// pair renders (and marshals) as one experiment.
type fig5Out struct {
	Analytic   []experiments.Fig5Point      `json:"analytic"`
	Validation []experiments.Fig5Validation `json:"validation"`
}

func (f fig5Out) String() string { return experiments.FormatFig5(f.Analytic, f.Validation) }

// ablationOut bundles the three ablation studies.
type ablationOut struct {
	OzQ         []experiments.OzQPoint       `json:"ozq"`
	RotReg      []experiments.RotRegPoint    `json:"rot_reg"`
	RotVsUnroll []experiments.RotVsUnrollRow `json:"rot_vs_unroll"`
}

func (a ablationOut) String() string {
	return experiments.FormatAblations(a.OzQ, a.RotReg) + "\n" +
		experiments.FormatRotVsUnroll(a.RotVsUnroll)
}

// jsonRecord is one element of the -json output array. Result is the
// experiment's native result struct, whose fields carry both measured and
// paper-reported values.
type jsonRecord struct {
	Experiment  string  `json:"experiment"`
	WallSeconds float64 `json:"wall_seconds"`
	Result      any     `json:"result"`
}

func main() {
	var run = flag.String("run", "all", "experiment to run: all | fig5 | fig7 | fig8 | fig9 | fig10 | casestudy | regstats | compiletime | versioning | sampling | ablation | oracle-gap")
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

	type experiment struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	exps := []experiment{
		{"fig5", func() (fmt.Stringer, error) {
			v, err := experiments.RunFig5Validation()
			if err != nil {
				return nil, err
			}
			return fig5Out{Analytic: experiments.AnalyticFig5(), Validation: v}, nil
		}},
		{"fig7", func() (fmt.Stringer, error) { return experiments.RunFig7() }},
		{"fig8", func() (fmt.Stringer, error) { return experiments.RunFig8() }},
		{"fig9", func() (fmt.Stringer, error) { return experiments.RunFig9() }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.RunFig10() }},
		{"casestudy", func() (fmt.Stringer, error) { return experiments.RunCaseStudy() }},
		{"regstats", func() (fmt.Stringer, error) { return experiments.RunRegStats() }},
		{"compiletime", func() (fmt.Stringer, error) { return experiments.RunCompileTime() }},
		{"versioning", func() (fmt.Stringer, error) { return experiments.RunVersioning() }},
		{"sampling", func() (fmt.Stringer, error) { return experiments.RunMissSampling() }},
		{"ablation", func() (fmt.Stringer, error) {
			ozq, err := experiments.RunOzQAblation()
			if err != nil {
				return nil, err
			}
			rot, err := experiments.RunRotRegAblation()
			if err != nil {
				return nil, err
			}
			rvu, err := experiments.RunRotVsUnroll()
			if err != nil {
				return nil, err
			}
			return ablationOut{OzQ: ozq, RotReg: rot, RotVsUnroll: rvu}, nil
		}},
		{"oracle-gap", func() (fmt.Stringer, error) { return experiments.RunOracleGap() }},
	}

	var records []jsonRecord
	ran := 0
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.fn()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *jsonOut {
			records = append(records, jsonRecord{
				Experiment:  e.name,
				WallSeconds: elapsed.Seconds(),
				Result:      res,
			})
		} else {
			fmt.Printf("──── %s (%.1fs) %s\n\n%s\n", e.name, elapsed.Seconds(),
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
