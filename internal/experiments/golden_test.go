package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ltsp/internal/golden"
)

const reproGoldenFile = "testdata/repro_golden.txt"

// goldenExperiment is one experiment of the full reproduction
// (`ltsp-bench -run all`): run returns its rendered table and the result
// value that `ltsp-bench -json` would emit.
type goldenExperiment struct {
	name string
	run  func() (string, any, error)
}

// memoRuns holds one *memoResult per experiment function.
var memoRuns sync.Map

type memoResult struct {
	once sync.Once
	v    any
	err  error
}

// memoRun runs an experiment once per test binary and hands every later
// caller the same result, so the shape tests and TestReproGolden share
// one run of the reproduction. Callers must not modify the result.
func memoRun[T any](run func() (T, error)) (T, error) {
	e, _ := memoRuns.LoadOrStore(reflect.ValueOf(run).Pointer(), &memoResult{})
	m := e.(*memoResult)
	m.once.Do(func() { m.v, m.err = run() })
	return m.v.(T), m.err
}

// stringer adapts a Run* function returning a fmt.Stringer result.
func stringer[T fmt.Stringer](run func() (T, error)) func() (string, any, error) {
	return func() (string, any, error) {
		r, err := memoRun(run)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	}
}

var goldenExperiments = []goldenExperiment{
	{"fig5", func() (string, any, error) {
		v, err := memoRun(RunFig5Validation)
		if err != nil {
			return "", nil, err
		}
		a := AnalyticFig5()
		return FormatFig5(a, v), []any{a, v}, nil
	}},
	{"fig7", stringer(RunFig7)},
	{"fig8", stringer(RunFig8)},
	{"fig9", stringer(RunFig9)},
	{"fig10", stringer(RunFig10)},
	{"casestudy", stringer(RunCaseStudy)},
	{"regstats", stringer(RunRegStats)},
	{"compiletime", stringer(RunCompileTime)},
	{"versioning", stringer(RunVersioning)},
	{"sampling", stringer(RunMissSampling)},
	{"ablation", func() (string, any, error) {
		ozq, err := memoRun(RunOzQAblation)
		if err != nil {
			return "", nil, err
		}
		rot, err := memoRun(RunRotRegAblation)
		if err != nil {
			return "", nil, err
		}
		rvu, err := memoRun(RunRotVsUnroll)
		if err != nil {
			return "", nil, err
		}
		return FormatAblations(ozq, rot) + "\n" + FormatRotVsUnroll(rvu), []any{ozq, rot, rvu}, nil
	}},
	{"oracle-gap", stringer(RunOracleGap)},
}

// TestReproGolden fences the whole reproduction: every experiment that
// `ltsp-bench -run all` runs is rendered with its String/Format function
// and encoded as JSON (which carries the per-loop II, stages, register
// footprint and scheduler attempts behind each table), and the SHA-256
// of both is compared with the committed testdata file. Any change to a
// reproduced number fails here. Run with -update to regenerate the file
// after an intended change.
func TestReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction")
	}
	var rows []golden.Row
	for _, e := range goldenExperiments {
		text, res, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.name, err)
		}
		h := sha256.New()
		h.Write([]byte(text))
		h.Write([]byte{'\n'})
		h.Write(js)
		rows = append(rows, golden.Row{Key: e.name, Digest: fmt.Sprintf("%x", h.Sum(nil))})
	}
	golden.Check(t, reproGoldenFile, rows)
}
