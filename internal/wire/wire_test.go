package wire_test

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

// TestHashStability: the content hash must be invariant under client
// formatting (whitespace, field order, non-canonical option spellings)
// and must change when the compilation inputs change.
func TestHashStability(t *testing.T) {
	gen, _ := workload.IntCopyAdd(64)
	opts := ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 100}
	req, err := wire.NewCompileRequest(gen(), opts)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Re-marshal the request with indentation and parse it back: the hash
	// must not change.
	pretty, err := json.MarshalIndent(req, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	var req2 wire.CompileRequest
	if err := json.Unmarshal(pretty, &req2); err != nil {
		t.Fatal(err)
	}
	h2, err := req2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not format-invariant: %s vs %s", h1, h2)
	}

	// "none" and "" are the same mode; the hash must agree.
	req3 := *req
	req3.Options.Mode = "none"
	req4 := *req
	req4.Options.Mode = ""
	h3, _ := req3.Hash()
	h4, _ := req4.Hash()
	if h3 != h4 {
		t.Fatalf("mode spelling leaks into hash: %s vs %s", h3, h4)
	}

	// Different options must hash differently.
	req5 := *req
	req5.Options.LatencyTolerant = !req5.Options.LatencyTolerant
	h5, _ := req5.Hash()
	if h5 == h1 {
		t.Fatal("hash ignores compile options")
	}

	// A different loop must hash differently.
	gen2, _ := workload.FPDaxpy(64)
	req6, err := wire.NewCompileRequest(gen2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	h6, err := req6.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h6 == h1 {
		t.Fatal("hash ignores the loop")
	}
}

// TestOptionsRoundTrip converts options wire → library → wire.
func TestOptionsRoundTrip(t *testing.T) {
	pipeline := true
	in := ltsp.Options{
		Mode:            ltsp.ModeAllFPL2,
		Prefetch:        true,
		LatencyTolerant: true,
		BoostDelinquent: true,
		TripEstimate:    42.5,
		Pipeline:        &pipeline,
	}
	w := wire.OptionsFrom(in)
	out, err := w.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != in.Mode || out.Prefetch != in.Prefetch ||
		out.LatencyTolerant != in.LatencyTolerant || out.BoostDelinquent != in.BoostDelinquent ||
		out.TripEstimate != in.TripEstimate || *out.Pipeline != *in.Pipeline {
		t.Fatalf("options round trip lost data: %+v -> %+v -> %+v", in, w, out)
	}
	if _, err := (wire.Options{Mode: "bogus"}).ToOptions(); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// TestSimOptionsDefaults: nil fields take sim defaults, set fields
// override.
func TestSimOptionsDefaults(t *testing.T) {
	cfg := wire.SimOptions{}.ToConfig()
	if !cfg.BankConflicts || cfg.FEOverhead != 6 || cfg.FlushOverhead != 6 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	off := false
	fe := 9
	cfg = wire.SimOptions{BankConflicts: &off, FEOverhead: &fe, RSECyclesPerExec: 5}.ToConfig()
	if cfg.BankConflicts || cfg.FEOverhead != 9 || cfg.RSECyclesPerExec != 5 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}

// TestBackendHashCanonicalization: the canonical wire spelling of the
// heuristic backend is the empty string, so requests that predate the
// backend field keep their artifact hashes; exact and oracle hash
// distinctly so cached artifacts never cross backends; unknown names
// fail before anything is cached.
func TestBackendHashCanonicalization(t *testing.T) {
	gen, _ := workload.IntCopyAdd(64)
	base, err := wire.NewCompileRequest(gen(), ltsp.Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	hash := func(backend string) string {
		r := *base
		r.Options.Backend = backend
		h, err := r.Hash()
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		return h
	}
	if hash("") != hash("heuristic") {
		t.Fatal("heuristic spelling leaks into the artifact hash")
	}
	he, ex, or := hash(""), hash("exact"), hash("oracle")
	if he == ex || he == or || ex == or {
		t.Fatalf("backends must hash distinctly: heuristic %s exact %s oracle %s", he, ex, or)
	}
	bad := *base
	bad.Options.Backend = "simplex"
	if _, err := bad.Hash(); err == nil {
		t.Fatal("unknown backend hashed — it would poison the artifact cache")
	}
	if _, err := bad.Options.ToOptions(); err == nil {
		t.Fatal("unknown backend accepted by ToOptions")
	}

	// OptionsFrom canonicalizes the spelling on the way out.
	if w := wire.OptionsFrom(ltsp.Options{Backend: ltsp.BackendHeuristic}); w.Backend != "" {
		t.Fatalf("OptionsFrom kept non-canonical heuristic spelling %q", w.Backend)
	}
	if w := wire.OptionsFrom(ltsp.Options{Backend: ltsp.BackendExact}); w.Backend != "exact" {
		t.Fatalf("OptionsFrom lost the exact backend: %q", w.Backend)
	}
	out, err := wire.Options{Backend: "exact"}.ToOptions()
	if err != nil || out.Backend != ltsp.BackendExact {
		t.Fatalf("backend round trip: %+v, %v", out, err)
	}
}

// TestOversizedJSONBodyRefusedEarly: a 9.8 MB JSON request of 200,000
// add instructions, far over ir.MaxWireBody, fails with the body-length
// *ir.InvalidLoopError (the invalid_loop envelope) before decoding a
// single instruction: the body is counted first, so the refusal
// allocates about the body's bytes once, not the 25 times it took to
// decode every instruction first.
func TestOversizedJSONBodyRefusedEarly(t *testing.T) {
	l := ir.NewLoop("huge")
	a, b := l.NewGR(), l.NewGR()
	for i := 0; i < 200_000; i++ {
		l.Append(ir.Add(a, a, b))
	}
	req, err := wire.NewCompileRequest(l, ltsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var back wire.CompileRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	_, err = back.Decode()
	runtime.ReadMemStats(&after)

	var inv *ir.InvalidLoopError
	if !errors.As(err, &inv) {
		t.Fatalf("decode of %d instructions: got %v, want *ir.InvalidLoopError", len(l.Body), err)
	}
	if want := "ir: invalid loop: body has 200000 instructions (limit 4096)"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)); got > bound {
		t.Fatalf("refusing a %d-byte request allocated %d bytes (bound %d)", len(data), got, bound)
	}
}
