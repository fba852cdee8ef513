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

// spillLoop has a unit-stride load (which HLO prefetches) and 48
// independent adds, each of its own loop invariant. The invariants
// overflow the static register file (r1-r31), so a compile that forces
// pipelining fails offline, after HLO has already inserted its
// prefetches; the minimizer can cut adds until 31 statics are left.
func spillLoop() *ir.Loop {
	l := ir.NewLoop("spill")
	bs, v := l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	for i := 0; i < 48; i++ {
		k, sum := l.NewGR(), l.NewGR()
		l.Init(k, int64(i+1))
		l.Append(ir.AddI(sum, k, 1))
	}
	l.Init(bs, 0x100000)
	l.LiveOut = []ir.Reg{bs}
	return l
}

// TestMinimizeCutsTheSourceLoop: Bundle.Minimize compiles copies, so the
// prefetches HLO inserts never reach the candidates or the bundle, and
// OrigBodyLen is the request's own body length.
func TestMinimizeCutsTheSourceLoop(t *testing.T) {
	on := true
	l := spillLoop()
	orig := len(l.Body)
	req, err := wire.NewCompileRequest(l, ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, TripEstimate: 1000, Pipeline: &on})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b := repro.Capture(repro.KindPanic, canon, "boom", nil, nil)
	b.Minimize(48)
	if !b.Minimized {
		t.Fatal("the failing loop was not minimized")
	}
	if b.OrigBodyLen != orig {
		t.Errorf("OrigBodyLen = %d, want the request's %d instructions", b.OrigBodyLen, orig)
	}
	var min wire.CompileRequest
	if err := json.Unmarshal(b.Request, &min); err != nil {
		t.Fatal(err)
	}
	d, err := min.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Loop.Body) != b.MinBodyLen || b.MinBodyLen >= orig {
		t.Errorf("minimized body has %d instructions, MinBodyLen %d, original %d", len(d.Loop.Body), b.MinBodyLen, orig)
	}
	for _, in := range d.Loop.Body {
		if in.Op == ir.OpLfetch {
			t.Fatalf("minimized loop carries HLO's prefetch %v: candidates were cut from a compiled loop", in)
		}
	}
	if res, err := b.Replay(); err != nil || !res.Reproduced {
		t.Fatalf("minimized bundle does not reproduce: %+v, %v", res, err)
	}
}

// chainSpillLoop is spillLoop with the adds chained: each add reads the
// previous sum, starting from the load. Only a cut at the chain's tail
// leaves every add's operand defined; any other cut makes the next add
// read a register nothing defines, which fails the compile for that
// alone.
func chainSpillLoop(adds int) *ir.Loop {
	l := ir.NewLoop("spill")
	bs, v := l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	prev := v
	for i := 0; i < adds; i++ {
		k, sum := l.NewGR(), l.NewGR()
		l.Init(k, int64(i+1))
		l.Append(ir.Add(sum, prev, k))
		prev = sum
	}
	l.Init(bs, 0x100000)
	l.LiveOut = []ir.Reg{bs}
	return l
}

// TestMinimizeKeepsTheFailure: a forced pipelining of the add chain
// runs out of static registers. Minimize must shrink it to a shorter
// chain that still runs out of them, not accept cuts that fail only
// because they broke the chain (the empty loop among them, which then
// leaves the bundle unminimized).
func TestMinimizeKeepsTheFailure(t *testing.T) {
	on := true
	l := chainSpillLoop(47)
	orig := len(l.Body)
	req, err := wire.NewCompileRequest(l, ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, TripEstimate: 1000, Pipeline: &on})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b := repro.Capture(repro.KindPanic, canon, "boom", nil, nil)
	b.Minimize(48)
	if !b.Minimized {
		t.Fatal("the failing chain was not minimized")
	}
	if b.MinBodyLen >= orig || b.MinBodyLen == 0 {
		t.Errorf("minimized body has %d instructions, original %d", b.MinBodyLen, orig)
	}
	res, err := b.Replay()
	if err != nil || !res.Reproduced {
		t.Fatalf("minimized bundle does not reproduce: %+v, %v", res, err)
	}
	if !strings.Contains(res.Detail, "register file exhausted") {
		t.Errorf("minimized bundle fails with %q, want the original's register exhaustion", res.Detail)
	}
	t.Logf("minimized %d -> %d instructions: %s", orig, b.MinBodyLen, res.Detail)
}

// TestMinimizeUndefinedRead: a captured loop that itself reads an
// undefined register fails for that reason, and Minimize shrinks it to
// a loop that still does, dropping the instructions around the read.
func TestMinimizeUndefinedRead(t *testing.T) {
	on := true
	l := chainSpillLoop(7)
	undef, sum := l.NewGR(), l.NewGR()
	l.Append(ir.Add(sum, l.Body[0].Dsts[0], undef))
	orig := len(l.Body)
	req, err := wire.NewCompileRequest(l, ltsp.Options{Pipeline: &on})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b := repro.Capture(repro.KindPanic, canon, "boom", nil, nil)
	b.Minimize(48)
	if !b.Minimized {
		t.Fatal("the loop reading an undefined register was not minimized")
	}
	if b.MinBodyLen >= orig || b.MinBodyLen == 0 {
		t.Errorf("minimized body has %d instructions, original %d", b.MinBodyLen, orig)
	}
	res, err := b.Replay()
	if err != nil || !res.Reproduced {
		t.Fatalf("minimized bundle does not reproduce: %+v, %v", res, err)
	}
	if !strings.Contains(res.Detail, "never defined or initialized") {
		t.Errorf("minimized bundle fails with %q, want the original's undefined read", res.Detail)
	}
	t.Logf("minimized %d -> %d instructions: %s", orig, b.MinBodyLen, res.Detail)
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
