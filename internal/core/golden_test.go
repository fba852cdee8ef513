package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const searchGoldenFile = "testdata/search_golden.txt"

// TestSearchGolden fences the II search across the whole workload: every
// loop of all 55 models, under both latency policies, after HLO hints
// and prefetching. Each compile's result (final II, stages, placement
// attempts, II bumps, the reduced-latency rung, the schedule, the load
// reports) and its JSON decision trace are digested and compared with
// the committed testdata file, so any change to a schedule, a trace or
// the search's accounting fails here. Run with -update to regenerate
// the file after an intended change.
func TestSearchGolden(t *testing.T) {
	m := machine.Itanium2()
	benches := workload.All()
	if len(benches) != 55 {
		t.Fatalf("workload.All() = %d models, want 55", len(benches))
	}
	var got bytes.Buffer
	for _, b := range benches {
		for i := range b.Loops {
			spec := &b.Loops[i]
			for _, tolerant := range []bool{false, true} {
				fmt.Fprintf(&got, "%s/%s tol=%v %s\n", b.Name, spec.Name, tolerant, searchDigest(t, m, spec, tolerant))
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(searchGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wl) != len(gl) {
		t.Fatalf("%d golden lines, %d computed", len(wl), len(gl))
	}
	bad := 0
	for i := range wl {
		if wl[i] != gl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			if bad++; bad == 10 {
				t.Fatal("too many differences")
			}
		}
	}
}

// searchDigest compiles one loop and returns the hex SHA-256 of its
// result fields and decision trace (or of its error and trace, when the
// compile fails).
func searchDigest(t *testing.T, m *machine.Model, spec *workload.LoopSpec, tolerant bool) string {
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
