// Command ltsp-sim compiles a benchmark-model loop under a chosen compiler
// configuration and simulates it on the cycle-accurate Itanium-2-class
// model, printing cycle accounting (the paper's Fig. 10 states), cache
// behaviour and OzQ statistics.
//
// Usage:
//
//	ltsp-sim -loop 429.mcf/refresh_potential -mode hlo -trip 3 -execs 5
//	ltsp-sim -loop 481.wrf/physics -mode none -cold -trip 48
//	ltsp-sim -loop 429.mcf/refresh_potential -account -stalls
//	ltsp-sim -loop 429.mcf/refresh_potential -trace-out kernel.json
//
// -account prints the Fig.-10 six-state accounting per execution,
// -stalls attributes data-stall cycles to individual load sites, and
// -trace-out writes a Chrome trace-event (catapult) timeline loadable at
// chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/obs"
	"ltsp/internal/sim"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

func main() {
	var (
		loopName = flag.String("loop", "", "loop to simulate: <benchmark>/<loop>")
		mode     = flag.String("mode", "hlo", "hint mode: none | all-l3 | all-fp-l2 | hlo")
		tolerant = flag.Bool("tolerant", true, "enable latency-tolerant pipelining")
		trip     = flag.Int64("trip", 0, "trip count per execution (0 = the loop's modeled average)")
		execs    = flag.Int("execs", 3, "number of executions to simulate")
		cold     = flag.Bool("cold", false, "drop caches between executions (default: the loop's modeled behaviour)")
		seq      = flag.Bool("seq", false, "compile sequentially (no pipelining)")
		trace    = flag.Bool("trace", false, "print a cycle-by-cycle issue trace of the first execution")
		account  = flag.Bool("account", false, "print the Fig.-10 six-state accounting for each execution")
		stalls   = flag.Bool("stalls", false, "print the per-load-site stall attribution table")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event (catapult) JSON timeline to this file")
	)
	flag.Parse()

	if *loopName == "" {
		fmt.Fprintln(os.Stderr, "usage: ltsp-sim -loop <benchmark>/<loop> (see 'ltsp -list')")
		os.Exit(1)
	}
	spec, err := findSpec(*loopName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dropCaches := spec.Cold || *cold

	hintMode, err := wire.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	l := spec.Gen()
	pipeline := !*seq
	c, err := ltsp.Compile(l, ltsp.Options{
		Mode: hintMode, Prefetch: true, TripEstimate: spec.Ref.Avg(),
		LatencyTolerant: *tolerant, BoostDelinquent: *tolerant, Pipeline: &pipeline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	prog := c.Program
	if c.Pipelined {
		fmt.Printf("pipelined: II=%d, stages=%d\n", c.II, c.Stages)
	} else {
		fmt.Printf("compiled sequentially: %d cycles/iteration\n", len(prog.Groups))
	}

	tripCount := *trip
	if tripCount <= 0 {
		tripCount = int64(spec.Ref.Avg())
		if tripCount < 1 {
			tripCount = 1
		}
	}

	simCfg := sim.DefaultConfig()
	if *trace {
		simCfg.Trace = os.Stdout
		*execs = 1 // tracing multiple executions would flood the terminal
	}
	var tl *obs.Timeline
	if *traceOut != "" {
		tl = obs.NewTimeline(0)
		simCfg.Timeline = tl
	}
	runner := sim.NewRunner(simCfg)
	mem := spec.NewMemory()
	var total sim.Accounting
	var loads [5]int64
	var ozqStalls int64
	ozqPeak := 0
	var perExec []sim.Accounting
	siteTable := map[int]sim.SiteStall{}
	for i := 0; i < *execs; i++ {
		if dropCaches {
			runner.DropCaches()
		}
		r, err := runner.Run(prog, tripCount, mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sim:", err)
			os.Exit(1)
		}
		total.Add(r.Acct)
		perExec = append(perExec, r.Acct)
		mergeSites(siteTable, r)
		for lv := range loads {
			loads[lv] += r.LoadsByLevel[lv]
		}
		ozqStalls += r.OzQFullStalls
		if r.OzQPeak > ozqPeak {
			ozqPeak = r.OzQPeak
		}
	}

	fmt.Printf("\n%d executions x trip %d (%s caches)\n", *execs, tripCount,
		map[bool]string{true: "cold", false: "warm"}[dropCaches])
	fmt.Printf("  total cycles        %10d  (%.1f per source iteration)\n",
		total.Total, float64(total.Total)/float64(int64(*execs)*tripCount))
	fmt.Printf("  unstalled execution %10d  (%4.1f%%)\n", total.Unstalled, pct(total.Unstalled, total.Total))
	fmt.Printf("  BE_EXE_BUBBLE       %10d  (%4.1f%%)\n", total.ExeBubble, pct(total.ExeBubble, total.Total))
	fmt.Printf("  BE_L1D_FPU_BUBBLE   %10d  (%4.1f%%)\n", total.L1DFPUBubble, pct(total.L1DFPUBubble, total.Total))
	fmt.Printf("  BE_RSE_BUBBLE       %10d  (%4.1f%%)\n", total.RSEBubble, pct(total.RSEBubble, total.Total))
	fmt.Printf("  BE_FLUSH_BUBBLE     %10d  (%4.1f%%)\n", total.FlushBubble, pct(total.FlushBubble, total.Total))
	fmt.Printf("  BACK_END_BUBBLE.FE  %10d  (%4.1f%%)\n", total.FEBubble, pct(total.FEBubble, total.Total))
	fmt.Printf("\n  demand loads by level: L1 %d, L2 %d, L3 %d, memory %d\n",
		loads[1], loads[2], loads[3], loads[4])
	fmt.Printf("  OzQ: peak occupancy %d, full-stall cycles %d\n", ozqPeak, ozqStalls)

	if *account {
		fmt.Printf("\n=== per-execution accounting (Fig. 10 states) ===\n")
		fmt.Printf("  %-6s %12s %12s %12s %12s %12s %12s %12s\n",
			"exec", "total", "unstalled", "EXE", "L1D_FPU", "RSE", "FLUSH", "FE")
		for i, a := range perExec {
			fmt.Printf("  %-6d %12d %12d %12d %12d %12d %12d %12d\n",
				i, a.Total, a.Unstalled, a.ExeBubble, a.L1DFPUBubble, a.RSEBubble, a.FlushBubble, a.FEBubble)
		}
		fmt.Printf("  %-6s %12d %12d %12d %12d %12d %12d %12d\n",
			"all", total.Total, total.Unstalled, total.ExeBubble, total.L1DFPUBubble,
			total.RSEBubble, total.FlushBubble, total.FEBubble)
	}

	if *stalls {
		fmt.Printf("\n=== stall attribution by load site ===\n")
		rows := sortedSites(siteTable)
		if len(rows) == 0 {
			fmt.Println("  (no load activity recorded)")
		} else {
			fmt.Printf("  %-4s %-28s %10s %8s %8s %10s %8s %7s\n",
				"site", "instruction", "stall-cyc", "events", "misses", "ozq-cyc", "avg-lat", "obs-k")
			for _, s := range rows {
				fmt.Printf("  %-4d %-28s %10d %8d %8d %10d %8.1f %7.2f\n",
					s.ID, trunc(siteName(l, s.ID), 28), s.StallCycles, s.StallEvents,
					s.Misses, s.OzQStallCycles, s.AvgLatency, s.ObservedK)
			}
		}
	}

	if tl != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
			os.Exit(1)
		}
		if err := tl.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "trace-out:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
			os.Exit(1)
		}
		fmt.Printf("\n  wrote %d timeline events to %s", tl.Len(), *traceOut)
		if n := tl.Dropped(); n > 0 {
			fmt.Printf(" (%d dropped beyond the event limit)", n)
		}
		fmt.Println("  — open in chrome://tracing or ui.perfetto.dev")
	}
}

// mergeSites folds one execution's stall attribution into the cross-run
// table, recomputing the weighted average latency and observed clustering
// factor.
func mergeSites(table map[int]sim.SiteStall, r *sim.Result) {
	for _, s := range r.SiteStalls() {
		acc := table[s.ID]
		if acc.Loads+s.Loads > 0 {
			acc.AvgLatency = (acc.AvgLatency*float64(acc.Loads) + s.AvgLatency*float64(s.Loads)) /
				float64(acc.Loads+s.Loads)
		}
		acc.ID = s.ID
		acc.StallCycles += s.StallCycles
		acc.StallEvents += s.StallEvents
		acc.OzQStallCycles += s.OzQStallCycles
		acc.Loads += s.Loads
		for lv := range acc.Levels {
			acc.Levels[lv] += s.Levels[lv]
		}
		acc.Misses += s.Misses
		if acc.StallEvents > 0 {
			acc.ObservedK = float64(acc.Misses) / float64(acc.StallEvents)
		}
		table[s.ID] = acc
	}
}

func sortedSites(table map[int]sim.SiteStall) []sim.SiteStall {
	out := make([]sim.SiteStall, 0, len(table))
	for _, s := range table {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StallCycles != out[b].StallCycles {
			return out[a].StallCycles > out[b].StallCycles
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// siteName labels a load site with its source comment when the loop has
// one, falling back to the instruction text.
func siteName(l *ir.Loop, id int) string {
	if id < 0 || id >= len(l.Body) {
		return fmt.Sprintf("body[%d]", id)
	}
	in := l.Body[id]
	if in.Comment != "" {
		return in.Comment
	}
	return in.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func findSpec(name string) (*workload.LoopSpec, error) {
	parts := strings.SplitN(name, "/", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("loop %q: want <benchmark>/<loop>", name)
	}
	b := workload.ByName(parts[0])
	if b == nil {
		return nil, fmt.Errorf("no benchmark %q", parts[0])
	}
	for i := range b.Loops {
		if b.Loops[i].Name == parts[1] {
			return &b.Loops[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark %s has no loop %q", parts[0], parts[1])
}
