package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"ltsp/internal/golden"
)

const reproGoldenFile = "testdata/repro_golden.txt"

// memoRuns holds one *memoResult per experiment name.
var memoRuns sync.Map

type memoResult struct {
	once sync.Once
	v    fmt.Stringer
	err  error
}

// runExperiment runs the named experiment of All once per test binary
// and hands every later caller the same result, so the shape tests and
// TestReproGolden share one run of the reproduction. Callers must not
// modify the result.
func runExperiment(t testing.TB, name string) fmt.Stringer {
	t.Helper()
	e, _ := memoRuns.LoadOrStore(name, &memoResult{})
	m := e.(*memoResult)
	m.once.Do(func() {
		m.err = fmt.Errorf("no experiment %q", name)
		for _, x := range All() {
			if x.Name == name {
				m.v, m.err = x.Run()
			}
		}
	})
	if m.err != nil {
		t.Fatalf("%s: %v", name, m.err)
	}
	return m.v
}

// result is runExperiment with the experiment's result type.
func result[T fmt.Stringer](t testing.TB, name string) T {
	t.Helper()
	return runExperiment(t, name).(T)
}

// TestReproGolden fences the whole reproduction: every experiment that
// `ltsp-bench -run all` runs is rendered with its String function and
// encoded as JSON, exactly as `ltsp-bench -json` emits it (the JSON
// carries the per-loop II, stages, register footprint and scheduler
// attempts behind each table), and the SHA-256 of both is compared with
// the committed testdata file. Any change to a
// reproduced number fails here. Run with -update to regenerate the file
// after an intended change.
func TestReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction")
	}
	var rows []golden.Row
	for _, e := range All() {
		res := runExperiment(t, e.Name)
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.Name, err)
		}
		h := sha256.New()
		h.Write([]byte(res.String()))
		h.Write([]byte{'\n'})
		h.Write(js)
		rows = append(rows, golden.Row{Key: e.Name, Digest: fmt.Sprintf("%x", h.Sum(nil))})
	}
	golden.Check(t, reproGoldenFile, rows)
}
