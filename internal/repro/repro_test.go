package repro_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/repro"
	"ltsp/internal/wire"
)

// chainLoop builds a loop whose body is a movi/add chain of n pairs
// feeding independent stores, so chunks of it can be removed without
// breaking the rest.
func chainLoop(n int) *ir.Loop {
	l := ir.NewLoop("chain")
	base := l.NewGR()
	l.Init(base, 0x100000)
	for i := 0; i < n; i++ {
		v := l.NewGR()
		l.Append(ir.MovI(v, int64(i)))
		st := ir.St(base, v, 8, 8)
		l.Append(st)
	}
	l.LiveOut = []ir.Reg{base}
	return l
}

// TestMinimizeLoopSynthetic shrinks a loop against a synthetic failure
// predicate ("the marker instruction is still present") and checks the
// minimizer converges on a smaller failing body.
func TestMinimizeLoopSynthetic(t *testing.T) {
	l := chainLoop(8)           // 16 instructions
	marker := l.Body[6].Dsts[0] // the MovI of the fourth pair
	fails := func(cand *ir.Loop) bool {
		for _, in := range cand.Body {
			if len(in.Dsts) > 0 && in.Dsts[0] == marker {
				return true
			}
		}
		return false
	}
	min, shrunk := repro.MinimizeLoop(l, fails, 200)
	if !shrunk {
		t.Fatal("minimizer failed to remove anything")
	}
	if !fails(min) {
		t.Fatal("minimized loop no longer fails")
	}
	if len(min.Body) >= len(l.Body) {
		t.Fatalf("minimized body = %d instructions, want < %d", len(min.Body), len(l.Body))
	}
	if len(l.Body) != 16 {
		t.Fatalf("original loop mutated: %d instructions", len(l.Body))
	}
	t.Logf("minimized %d -> %d instructions", len(l.Body), len(min.Body))
}

// TestMinimizeLoopNoFalseShrink: when the original does not fail, the
// loop is returned untouched.
func TestMinimizeLoopNoFalseShrink(t *testing.T) {
	l := chainLoop(4)
	min, shrunk := repro.MinimizeLoop(l, func(*ir.Loop) bool { return false }, 100)
	if shrunk || len(min.Body) != len(l.Body) {
		t.Fatalf("minimizer shrank a non-failing loop: %d -> %d", len(l.Body), len(min.Body))
	}
}

// validRequest is the canonical encoding of a request that compiles and
// verifies clean.
func validRequest(t *testing.T) json.RawMessage {
	t.Helper()
	l := ir.NewLoop("ok")
	v, b := l.NewGR(), l.NewGR()
	ld := ir.Ld(v, b, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	l.Init(b, 0x100000)
	l.LiveOut = []ir.Reg{b}
	req, err := wire.NewCompileRequest(l, ltsp.Options{LatencyTolerant: true, TripEstimate: 100})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestCaptureWriteLoadReplay round-trips a bundle through disk and
// replays it.
func TestCaptureWriteLoadReplay(t *testing.T) {
	req := validRequest(t)
	b := repro.Capture(repro.KindPanic, req, "boom", []byte("stack trace"), nil)
	if b.PanicValue != "boom" || b.Stack != "stack trace" || b.Kind != repro.KindPanic {
		t.Fatalf("capture = %+v", b)
	}

	dir := t.TempDir()
	path, err := b.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same content writes to the same file (content-addressed name).
	path2, err := b.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != path2 {
		t.Errorf("re-write moved the bundle: %s vs %s", path, path2)
	}

	loaded, err := repro.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PanicValue != "boom" {
		t.Fatalf("loaded bundle = %+v", loaded)
	}
	res, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The request compiles and verifies clean, so the recorded panic does
	// not reproduce offline.
	if res.Reproduced {
		t.Fatalf("healthy request reproduced a failure: %s", res.Detail)
	}
}

// TestReplayReproducesBadLoop: a bundle holding a semantically invalid
// loop reproduces at decode time.
func TestReplayReproducesBadLoop(t *testing.T) {
	l := ir.NewLoop("dup")
	r := l.NewGR()
	l.Append(ir.MovI(r, 1))
	l.Append(ir.MovI(r, 2))
	l.LiveOut = []ir.Reg{r}
	req, err := wire.NewCompileRequest(l, ltsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	b := repro.Capture(repro.KindPanic, data, "decode-adjacent crash", nil, nil)
	res, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || !strings.Contains(res.Detail, "decode") {
		t.Fatalf("replay = %+v, want reproduced at decode", res)
	}
}

// TestLoadRejectsBadBundles covers the bundle-level error paths.
func TestLoadRejectsBadBundles(t *testing.T) {
	if _, err := repro.Load("/nonexistent/bundle.json"); err == nil {
		t.Error("Load of a missing file succeeded")
	}
	b := repro.Capture(repro.KindPanic, validRequest(t), "x", nil, nil)
	b.Version = 99
	path, err := b.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Load(path); err == nil {
		t.Error("Load accepted an unsupported bundle version")
	}
}
