package main

import (
	"fmt"
	"os"
	"strings"

	"ltsp"
	"ltsp/internal/experiments"
	"ltsp/internal/interp"
	"ltsp/internal/sim"
	"ltsp/internal/wire"
)

// recordExpected regenerates the expected-results file: the compile
// outcome of every point of the compile universe and of every request of
// serve-mixed's callers, the cycles of its simulation at simTrip as
// /v2/simulate runs it, and the result of every repro pair. Run it only
// on a commit whose results are trusted.
func recordExpected(path string) error {
	e := expected{}
	sweep, cli := callerInputs()
	for _, in := range append(append(compileUniverse(), sweep...), cli...) {
		c, err := ltsp.Compile(in.loop.Clone(), in.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		e["compile "+in.key] = compileResult(c.Pipelined, c.II, c.Stages)
		if r, err := sim.NewRunner(wire.SimOptions{}.ToConfig()).Run(c.Program, simTrip, interp.NewMemory()); err == nil {
			e["sim "+in.key] = simResult(r.Cycles)
		}
	}
	for _, p := range reproUniverse() {
		ev, err := experiments.EvalLoop(p.spec, p.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		e["repro "+p.key] = reproResult(ev.Pipelined, ev.II, ev.Stages, ev.Cycles)
	}
	var b strings.Builder
	b.WriteString("# Expected results of the perfbench workloads; regenerate with --record.\n")
	for _, line := range sortedLines(e) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
