package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"ltsp/internal/core"
	"ltsp/internal/golden"
	"ltsp/internal/hlo"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/workload"
)

const searchGoldenFile = "testdata/search_golden.txt"

// TestSearchGolden fences the II search across the whole workload: every
// loop of all 55 models, under both latency policies, after HLO hints
// and prefetching. Each compile's row carries the search's readable
// outcome (final II, RecMII and ResMII, stages, placement attempts, II
// bumps, the reduced-latency rung, rotating and static GR/FR used, or
// err) and a digest of its result fields, schedule, load reports and
// JSON decision trace, so any change to a schedule, a trace or the
// search's accounting fails here. Run with -update to regenerate the
// file after an intended change.
func TestSearchGolden(t *testing.T) {
	m := machine.Itanium2()
	benches := workload.All()
	if len(benches) != 55 {
		t.Fatalf("workload.All() = %d models, want 55", len(benches))
	}
	var rows []golden.Row
	for _, b := range benches {
		for i := range b.Loops {
			spec := &b.Loops[i]
			for _, tolerant := range []bool{false, true} {
				rows = append(rows, searchRow(t, m, b.Name, spec, tolerant))
			}
		}
	}
	golden.Check(t, searchGoldenFile, rows)
}

// searchRow compiles one loop and returns its golden row.
func searchRow(t *testing.T, m *machine.Model, bench string, spec *workload.LoopSpec, tolerant bool) golden.Row {
	t.Helper()
	l := spec.Gen()
	if _, err := hlo.Apply(l, hlo.Options{Model: m, Mode: hlo.ModeHLO, Prefetch: true}); err != nil {
		t.Fatalf("%s: hlo: %v", spec.Name, err)
	}
	tr := obs.New()
	c, err := core.Pipeline(l, core.Options{
		Model:           m,
		LatencyTolerant: tolerant,
		BoostDelinquent: tolerant,
		Trace:           tr,
	})
	row := golden.Row{
		Key:    fmt.Sprintf("%s/%s tol=%v", bench, spec.Name, tolerant),
		Digest: searchDigest(t, spec, c, err, tr),
	}
	if err != nil {
		row.Fields = []golden.Field{{Name: "err"}}
		return row
	}
	st := c.Assignment.Stats
	row.Fields = []golden.Field{
		golden.F("ii", c.FinalII), golden.F("recmii", c.BaseRecII), golden.F("resmii", c.ResII),
		golden.F("stages", c.Stages), golden.F("attempts", c.Attempts), golden.F("bumps", c.IIBumps),
		golden.F("reduced", c.LatencyReduced),
		golden.F("rot", fmt.Sprintf("%d/%d", st.RotGR, st.RotFR)),
		golden.F("static", fmt.Sprintf("%d/%d", st.StaticGR, st.StaticFR)),
	}
	return row
}

// searchDigest returns the hex SHA-256 of one compile's result fields and
// decision trace (or of its error and trace, when the compile failed).
func searchDigest(t *testing.T, spec *workload.LoopSpec, c *core.Compiled, err error, tr *obs.Trace) string {
	t.Helper()
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
	} else {
		fmt.Fprintf(h, "ii=%d stages=%d attempts=%d bumps=%d reduced=%v\n",
			c.FinalII, c.Stages, c.Attempts, c.IIBumps, c.LatencyReduced)
		for _, v := range []any{c.Schedule, c.Loads} {
			js, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: marshal: %v", spec.Name, err)
			}
			h.Write(js)
			h.Write([]byte{'\n'})
		}
	}
	js, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("%s: trace marshal: %v", spec.Name, err)
	}
	h.Write(js)
	return fmt.Sprintf("%x", h.Sum(nil))
}
