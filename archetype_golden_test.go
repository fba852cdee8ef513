package ltsp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltsp/internal/ir"
	"ltsp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const archetypeGoldenFile = "testdata/archetype_golden.txt"

// archetypeSource is one size-scaled archetype loop body.
type archetypeSource struct {
	name string
	gen  func() *ir.Loop
}

// goldenArchetypes returns MultiStreamXor with 2-16 streams and
// RegPressureFP with 2-24 lanes: the large bodies that push the II
// search and the register files hardest.
func goldenArchetypes() []archetypeSource {
	var out []archetypeSource
	for n := 2; n <= 16; n++ {
		gen, _ := workload.MultiStreamXor(n, 1024)
		out = append(out, archetypeSource{fmt.Sprintf("multistreamxor-%d", n), gen})
	}
	for _, lanes := range []int{2, 4, 6, 8, 12, 16, 20, 24} {
		gen, _ := workload.RegPressureFP(lanes, 1024)
		out = append(out, archetypeSource{fmt.Sprintf("regpressurefp-%d", lanes), gen})
	}
	return out
}

// compileDigest hashes everything a compile decides except its trace:
// the pipelining outcome, the II search's counters, the register
// footprint and the emitted program.
func compileDigest(c *Compiled) string {
	h := sha256.New()
	fmt.Fprintf(h, "pipelined=%t ii=%d stages=%d attempts=%d bumps=%d reduced=%t reg=%+v\n",
		c.Pipelined, c.II, c.Stages, c.Attempts, c.IIBumps, c.LatencyReduced, c.Reg)
	h.Write([]byte(c.Program.Listing()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestArchetypeCompileGolden fences the compiler's decisions on the
// scaled archetypes: every (archetype, hint mode, latency tolerance,
// trip estimate) point compiles with prefetching on, and the digest of
// its result must match testdata/archetype_golden.txt. Run with -update
// to rewrite the file after an intended change.
func TestArchetypeCompileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 736 loops")
	}
	var b strings.Builder
	for _, src := range goldenArchetypes() {
		for _, mode := range []HintMode{ModeNone, ModeAllL3, ModeAllFPL2, ModeHLO} {
			for _, lt := range []bool{false, true} {
				for _, trip := range []float64{0, 16, 256, 10000} {
					opts := Options{Mode: mode, Prefetch: true, LatencyTolerant: lt, TripEstimate: trip}
					key := fmt.Sprintf("%s|%s|lt=%t|trip=%g", src.name, mode, lt, trip)
					c, err := Compile(src.gen(), opts)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					fmt.Fprintf(&b, "%s %s\n", key, compileDigest(c))
				}
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(archetypeGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(archetypeGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(archetypeGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	diffs := 0
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			if diffs < 10 {
				t.Errorf("line %d:\n  want %s\n  got  %s", i+1, w, g)
			}
			diffs++
		}
	}
	t.Fatalf("%d of %d points differ from %s", diffs, len(wantLines)-1, archetypeGoldenFile)
}
