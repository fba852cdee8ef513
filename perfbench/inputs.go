package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ltsp"
	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/workload"
)

// loopSrc is one loop body the compile universe draws from.
type loopSrc struct {
	name string
	gen  func() *ir.Loop
}

// workloadSources returns the loop specs of the 55 workload models, named
// <benchmark>/<loop> as the ltsp command lists them: 53 specs. Specs that
// share a loop name in different models have different bodies, so none
// is merged.
func workloadSources() []loopSrc {
	var out []loopSrc
	for _, b := range workload.All() {
		for i := range b.Loops {
			out = append(out, loopSrc{name: b.Name + "/" + b.Loops[i].Name, gen: b.Loops[i].Gen})
		}
	}
	return out
}

// loopSources returns the workload loop specs plus size-scaled
// archetypes: MultiStreamXor with 2-16 streams and RegPressureFP with
// 2-24 lanes. Large bodies set the compile tail.
func loopSources() []loopSrc {
	out := workloadSources()
	for n := 2; n <= 16; n++ {
		gen, _ := workload.MultiStreamXor(n, 1024)
		out = append(out, loopSrc{name: fmt.Sprintf("archetype.multistreamxor-%d", n), gen: gen})
	}
	for _, lanes := range []int{2, 4, 6, 8, 12, 16, 20, 24} {
		gen, _ := workload.RegPressureFP(lanes, 1024)
		out = append(out, loopSrc{name: fmt.Sprintf("archetype.regpressurefp-%d", lanes), gen: gen})
	}
	return out
}

// compileInput is one (loop, options) point of the compile universe.
type compileInput struct {
	key  string
	loop *ir.Loop // template, cloned for every compile
	opts ltsp.Options
}

// inputKey names a (loop, options) point in expected.txt. Prefetching is
// on in every point.
func inputKey(loop string, o ltsp.Options) string {
	key := fmt.Sprintf("%s|%s|lt=%t|trip=%g", loop, o.Mode, o.LatencyTolerant, o.TripEstimate)
	if o.BoostDelinquent {
		key += "|boost"
	}
	return key
}

var (
	hintModes     = []hlo.HintMode{ltsp.ModeNone, ltsp.ModeAllL3, ltsp.ModeAllFPL2, ltsp.ModeHLO}
	tripEstimates = []float64{0, 16, 256, 10000}
)

// compileUniverse crosses every loop source with the 4 hint modes,
// latency-tolerant pipelining on and off, and a spread of trip
// estimates. Prefetching is on, as in all of the paper's configurations.
func compileUniverse() []compileInput {
	var out []compileInput
	for _, src := range loopSources() {
		tmpl := src.gen()
		for _, mode := range hintModes {
			for _, lt := range []bool{false, true} {
				for _, trip := range tripEstimates {
					opts := ltsp.Options{Mode: mode, Prefetch: true, LatencyTolerant: lt, TripEstimate: trip}
					out = append(out, compileInput{key: inputKey(src.name, opts), loop: tmpl, opts: opts})
				}
			}
		}
	}
	return out
}

// uniform returns n equal weights for drawList.
func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// newRand is the seeded source every op list is drawn from.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// drawList returns m indices into weights as a systematic sample shuffled
// by rng: entry i appears floor or ceil of m*w_i/sum(w) times. The sample
// starts half a step in, so every seed draws the same multiset in its own
// order and the spread between seeds stays small.
func drawList(rng *rand.Rand, weights []float64, m int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	step := total / float64(m)
	u := step / 2
	out := make([]int, 0, m)
	var cum float64
	for i, w := range weights {
		cum += w
		for u < cum && len(out) < m {
			out = append(out, i)
			u += step
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// listDigest names an op list by the hash of its op keys in order.
func listDigest(n int, key func(i int) string) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write([]byte(key(i)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d ops, sha256 %s", n, hex.EncodeToString(h.Sum(nil))[:16])
}

//go:embed expected.txt
var expectedText string

// expected maps "<kind> <key>" to the result recorded at the seed commit
// with --record.
type expected map[string]string

// loadExpected parses expected.txt once.
var loadExpected = sync.OnceValues(func() (expected, error) {
	e := expected{}
	sc := bufio.NewScanner(strings.NewReader(expectedText))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("expected.txt: malformed line %q", line)
		}
		e[k] = v
	}
	if len(e) == 0 {
		return nil, fmt.Errorf("expected.txt is empty: regenerate it with --record")
	}
	return e, nil
})

func (e expected) has(kind, key string) bool {
	_, ok := e[kind+" "+key]
	return ok
}

// check compares one result against the recorded one.
func (e expected) check(kind, key, got string) error {
	want, ok := e[kind+" "+key]
	if !ok {
		return fmt.Errorf("%s %s: no expected result", kind, key)
	}
	if got != want {
		return fmt.Errorf("%s %s: got %q, want %q", kind, key, got, want)
	}
	return nil
}

func compileResult(pipelined bool, ii, stages int) string {
	return fmt.Sprintf("pipelined=%t ii=%d stages=%d", pipelined, ii, stages)
}

func simResult(cycles int64) string { return fmt.Sprintf("cycles=%d", cycles) }

// reproResult prints cycles in the shortest form that reads back exactly.
func reproResult(pipelined bool, ii, stages int, cycles float64) string {
	return fmt.Sprintf("%s cycles=%v", compileResult(pipelined, ii, stages), cycles)
}

// sortedLines renders an expected map in key order.
func sortedLines(e expected) []string {
	var out []string
	for k, v := range e {
		out = append(out, k+"\t"+v)
	}
	sort.Strings(out)
	return out
}
