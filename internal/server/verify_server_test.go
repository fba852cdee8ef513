package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/repro"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// decodeEnvelope parses the error envelope out of a response body.
func decodeEnvelope(t *testing.T, body []byte) wire.ErrorBody {
	t.Helper()
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, body)
	}
	return env.Error
}

// TestSeededPanicContained seeds a panic inside the compile flight and
// checks the full containment story: the request fails with a structured
// "internal" envelope, a replayable repro bundle lands on disk, the
// worker pool survives (a follow-up compile succeeds), and no goroutine
// leaks.
func TestSeededPanicContained(t *testing.T) {
	reproDir := t.TempDir()
	srv, ts := newTestServer(t, server.Config{VerifySample: -1, ReproDir: reproDir})
	server.SetTestCompileHook(func(l *ir.Loop) {
		if l.Name == "panicloop" {
			panic("seeded compiler panic")
		}
	})
	defer server.SetTestCompileHook(nil)

	// Warm up the HTTP client/server connection pool so keep-alive
	// goroutines don't read as leaks, then take the baseline.
	resp0, body0 := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(99)))
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("warm-up compile: %s\n%s", resp0.Status, body0)
	}
	before := runtime.NumGoroutine()

	bad := copyAddLoop(100)
	bad.Name = "panicloop"
	for round := 0; round < 2; round++ {
		// Round 2 re-sends the identical request: before the flight gained
		// panic containment this deadlocked every waiter on the key.
		resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, bad))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("round %d: status = %s, want 500\n%s", round, resp.Status, body)
		}
		e := decodeEnvelope(t, body)
		if e.Code != wire.CodeInternal || !e.Retryable {
			t.Fatalf("round %d: envelope = %+v, want code %q retryable", round, e, wire.CodeInternal)
		}
	}
	if got := srv.Metrics().PanicsRecovered.Load(); got != 2 {
		t.Errorf("PanicsRecovered = %d, want 2", got)
	}

	// The pool and cache survived: a healthy compile still works.
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(101)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic compile: %s\n%s", resp.Status, body)
	}

	// A repro bundle was written and replays.
	entries, err := os.ReadDir(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no repro bundle written")
	}
	b, err := repro.Load(filepath.Join(reproDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != repro.KindPanic || b.PanicValue != "seeded compiler panic" || b.Stack == "" {
		t.Fatalf("bundle = kind %q panic %q stack %d bytes", b.Kind, b.PanicValue, len(b.Stack))
	}
	res, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The panic was seeded by the server-side hook, so the offline replay
	// compiles clean — what matters is that replay runs the bundled
	// request end to end.
	if res.Reproduced {
		t.Errorf("hook-seeded panic unexpectedly reproduced offline: %s", res.Detail)
	}

	// No goroutine leak: the flight, worker and waiter goroutines all
	// unwound. Drop idle client connections first and allow scheduling
	// time for the runtime to reap everything.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after contained panics", before, after)
	}
}

// TestBinaryPanicBundleReplays: a panic on a binary-framed request is
// captured with the request's canonical encoding, loop included, so the
// bundle replays offline like one captured from JSON.
func TestBinaryPanicBundleReplays(t *testing.T) {
	reproDir := t.TempDir()
	_, ts := newTestServer(t, server.Config{VerifySample: -1, ReproDir: reproDir})
	server.SetTestCompileHook(func(l *ir.Loop) {
		if l.Name == "panicloop" {
			panic("seeded compiler panic")
		}
	})
	defer server.SetTestCompileHook(nil)

	bad := copyAddLoop(100)
	bad.Name = "panicloop"
	resp, body := postRaw(t, ts.URL+"/v2/compile", binary.ContentType, "", binFrame(t, bad, ltsp.Options{}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %s, want 500\n%s", resp.Status, body)
	}
	entries, err := os.ReadDir(reproDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("repro dir: %d entries, err %v; want one bundle", len(entries), err)
	}
	b, err := repro.Load(filepath.Join(reproDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// The hook-seeded panic does not reproduce offline; a bundle without
	// the loop would be "rejected at decode" instead.
	if res.Reproduced {
		t.Fatalf("replay of the binary request's bundle: %s", res.Detail)
	}
}

// TestVerifyFailureSurfaces forces the sampled verifier to reject a
// compilation and checks the failure is surfaced as an internal-error
// envelope, counted, and captured as a verify_failure bundle.
func TestVerifyFailureSurfaces(t *testing.T) {
	reproDir := t.TempDir()
	_, ts := newTestServer(t, server.Config{VerifySample: 1, ReproDir: reproDir})
	server.SetTestVerifyHook(func(*ltsp.Compiled) error {
		return errors.New("injected: op moved by one row")
	})
	defer server.SetTestVerifyHook(nil)

	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(110)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %s, want 500\n%s", resp.Status, body)
	}
	e := decodeEnvelope(t, body)
	if e.Code != wire.CodeInternal {
		t.Fatalf("envelope code = %q, want %q", e.Code, wire.CodeInternal)
	}
	if m := verifyCounts(t, ts.URL); m.VerifyRuns != 1 || m.VerifyFailures != 1 {
		t.Errorf("verify counters = %d runs / %d failures, want 1/1", m.VerifyRuns, m.VerifyFailures)
	}
	entries, err := os.ReadDir(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("repro dir has %d entries, want 1", len(entries))
	}
	b, err := repro.Load(filepath.Join(reproDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != repro.KindVerifyFailure || b.Error == "" {
		t.Fatalf("bundle = kind %q error %q", b.Kind, b.Error)
	}

	// With the hook cleared, verification passes and the request succeeds.
	server.SetTestVerifyHook(nil)
	resp, body = post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(111)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean compile after verify failure: %s\n%s", resp.Status, body)
	}
	if m := verifyCounts(t, ts.URL); m.VerifyRuns != 2 || m.VerifyFailures != 1 {
		t.Errorf("verify counters after clean run = %d/%d, want 2/1", m.VerifyRuns, m.VerifyFailures)
	}
}

// verifyCounts reads the verification counters from /metrics.
func verifyCounts(t *testing.T, base string) metricsDoc {
	t.Helper()
	var m metricsDoc
	get(t, base+"/metrics", &m)
	return m
}

// TestVerifySampling checks the sampling policy: rate 1 verifies every
// compilation, negative rates none, and fractional rates every ~1/rate-th.
func TestVerifySampling(t *testing.T) {
	// A rate in (0.5, 1) rounds to stride 1: every compile is verified.
	for _, tc := range []struct {
		rate float64
		want int64
	}{{0.5, 2}, {0.75, 4}} {
		_, ts := newTestServer(t, server.Config{VerifySample: tc.rate})
		for i := 0; i < 4; i++ {
			resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(int64(120+i))))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compile %d: %s\n%s", i, resp.Status, body)
			}
		}
		if got := verifyCounts(t, ts.URL).VerifyRuns; got != tc.want {
			t.Errorf("VerifyRuns at rate %v over 4 compiles = %d, want %d", tc.rate, got, tc.want)
		}
	}

	_, tsOff := newTestServer(t, server.Config{VerifySample: -1})
	resp, body := post(t, tsOff.URL+"/v2/compile", compileRequest(t, copyAddLoop(130)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s\n%s", resp.Status, body)
	}
	if got := verifyCounts(t, tsOff.URL).VerifyRuns; got != 0 {
		t.Errorf("VerifyRuns with sampling disabled = %d, want 0", got)
	}
}

// TestInvalidLoopEnvelope sends semantically broken loops (syntactically
// valid JSON) and checks each is rejected with the non-retryable
// invalid_loop code instead of reaching — and possibly panicking — the
// compiler.
func TestInvalidLoopEnvelope(t *testing.T) {
	_, ts := newTestServer(t, server.Config{VerifySample: -1})

	dup := ir.NewLoop("dupdef")
	r := dup.NewGR()
	dup.Append(ir.MovI(r, 1))
	dup.Append(ir.MovI(r, 2))
	dup.LiveOut = []ir.Reg{r}

	negDist := copyAddLoop(139)
	negDist.MemDeps = []ir.MemDep{{From: 2, To: 0, Distance: -1}}

	huge := copyAddLoop(140)
	huge.Body[1].Srcs[1] = ir.Reg{Class: ir.ClassGR, N: 100000}

	for _, tc := range []struct {
		name string
		l    *ir.Loop
	}{{"duplicate-def", dup}, {"negative-distance", negDist}, {"out-of-file-phys", huge}} {
		req, err := wire.NewCompileRequest(tc.l, ltsp.Options{})
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		resp, body := post(t, ts.URL+"/v2/compile", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400\n%s", tc.name, resp.Status, body)
			continue
		}
		e := decodeEnvelope(t, body)
		if e.Code != wire.CodeInvalidLoop || e.Retryable {
			t.Errorf("%s: envelope = %+v, want non-retryable %q", tc.name, e, wire.CodeInvalidLoop)
		}
	}
}

// TestBatchItemPanicContained seeds a panic on one item of a batch and
// checks the other items still compile.
func TestBatchItemPanicContained(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{VerifySample: -1})
	server.SetTestCompileHook(func(l *ir.Loop) {
		if l.Name == "panicloop" {
			panic("seeded batch panic")
		}
	})
	defer server.SetTestCompileHook(nil)

	bad := copyAddLoop(150)
	bad.Name = "panicloop"
	items := make([]wire.CompileItem, 3)
	for i, l := range []*ir.Loop{copyAddLoop(151), bad, copyAddLoop(152)} {
		req := compileRequest(t, l)
		items[i] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
	}
	resp, body := post(t, ts.URL+"/v2/compile-batch",
		&wire.CompileBatchRequest{Version: wire.Version, Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s\n%s", resp.Status, body)
	}
	var br wire.CompileBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 3 {
		t.Fatalf("batch returned %d items", len(br.Items))
	}
	if br.Items[0].Error != "" || br.Items[2].Error != "" {
		t.Errorf("healthy items failed: %+v / %+v", br.Items[0], br.Items[2])
	}
	if br.Items[1].ErrorCode != wire.CodeInternal {
		t.Errorf("panicking item = %+v, want code %q", br.Items[1], wire.CodeInternal)
	}
	if srv.Metrics().PanicsRecovered.Load() == 0 {
		t.Error("batch panic not counted")
	}
}
