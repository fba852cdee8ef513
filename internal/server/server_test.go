package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

func newTestServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// copyAddLoop builds the paper's running example with a distinguishing
// constant, so distinct k values are distinct cache keys.
func copyAddLoop(k int64) *ir.Loop {
	l := ir.NewLoop("copyadd")
	v, bs, bd, r, kr := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	l.Append(ir.Add(r, v, kr))
	st := ir.St(bd, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(st)
	l.Init(bs, 0x100000)
	l.Init(bd, 0x200000)
	l.Init(kr, k)
	l.LiveOut = []ir.Reg{bs, bd}
	return l
}

func compileRequest(t testing.TB, l *ir.Loop) *wire.CompileRequest {
	t.Helper()
	req, err := wire.NewCompileRequest(l, ltsp.Options{
		Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestCompileEndpoint drives one compile and checks the response shape.
func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(1)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Hash == "" || !cr.Pipelined || cr.II < 1 || cr.Stages < 1 || cr.Listing == "" {
		t.Fatalf("implausible compile response: %+v", cr)
	}
	if cr.Cached {
		t.Fatal("first compile reported cached")
	}
}

// TestSimulateByHashAndInline compiles, simulates by hash, then inline,
// and cross-checks the two cycle counts.
func TestSimulateByHashAndInline(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := compileRequest(t, copyAddLoop(2))

	resp, body := post(t, ts.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}

	simByHash := wire.SimulateRequest{Version: wire.Version, Hash: cr.Hash, Trip: 500}
	resp, body = post(t, ts.URL+"/v2/simulate", simByHash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate by hash: %s: %s", resp.Status, body)
	}
	var s1 wire.SimulateResponse
	if err := json.Unmarshal(body, &s1); err != nil {
		t.Fatal(err)
	}
	if s1.Cycles < 500 {
		t.Fatalf("implausible cycle count %d for trip 500", s1.Cycles)
	}
	if s1.Acct.Total != s1.Cycles {
		t.Fatalf("accounting total %d != cycles %d", s1.Acct.Total, s1.Cycles)
	}

	simInline := wire.SimulateRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options, Trip: 500}
	resp, body = post(t, ts.URL+"/v2/simulate", simInline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate inline: %s: %s", resp.Status, body)
	}
	var s2 wire.SimulateResponse
	if err := json.Unmarshal(body, &s2); err != nil {
		t.Fatal(err)
	}
	if s2.Hash != cr.Hash {
		t.Fatalf("inline simulate hashed to %s, compile to %s", s2.Hash, cr.Hash)
	}
	if !s2.Cached {
		t.Fatal("inline simulate of a compiled loop missed the artifact cache")
	}
	if s1.Cycles != s2.Cycles {
		t.Fatalf("hash vs inline cycles differ: %d vs %d", s1.Cycles, s2.Cycles)
	}

	// Unknown hashes are a clean 404.
	resp, _ = post(t, ts.URL+"/v2/simulate", wire.SimulateRequest{Version: wire.Version, Hash: "deadbeef", Trip: 10})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: got %s, want 404", resp.Status)
	}
}

// TestSimulateWithMemory seeds memory and checks it affects the result
// deterministically.
func TestSimulateWithMemory(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	gen, _ := workload.PointerChase(256, 3)
	req, err := wire.NewCompileRequest(gen(), ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny two-node cycle at the chain head so the chase never hits
	// address zero.
	mem := []wire.MemInit{
		{Addr: 0x0200_0000, Size: 8, Val: 0x0200_0000 + 32},
		{Addr: 0x0200_0000 + 32, Size: 8, Val: 0x0200_0000},
	}
	sim := wire.SimulateRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options, Trip: 64, Memory: mem}
	resp, body := post(t, ts.URL+"/v2/simulate", sim)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %s: %s", resp.Status, body)
	}
	var s1, s2 wire.SimulateResponse
	if err := json.Unmarshal(body, &s1); err != nil {
		t.Fatal(err)
	}
	_, body = post(t, ts.URL+"/v2/simulate", sim)
	if err := json.Unmarshal(body, &s2); err != nil {
		t.Fatal(err)
	}
	if s1.Cycles != s2.Cycles {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", s1.Cycles, s2.Cycles)
	}
}

// TestSimulateRejectsWhatItCannotModel: negative simulator overheads and
// a memory initializer of a size the store has no form for are 400s that
// say what was wrong, not a simulated clock run backwards or a store
// loop over the requested size.
func TestSimulateRejectsWhatItCannotModel(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	neg := -1000
	cases := []struct {
		name string
		req  wire.SimulateRequest
		want string
	}{
		{"feOverhead -1000", wire.SimulateRequest{Sim: wire.SimOptions{FEOverhead: &neg}}, "FEOverhead"},
		{"flushOverhead -1000", wire.SimulateRequest{Sim: wire.SimOptions{FlushOverhead: &neg}}, "FlushOverhead"},
		{"rseCyclesPerExec -1", wire.SimulateRequest{Sim: wire.SimOptions{RSECyclesPerExec: -1}}, "RSECyclesPerExec"},
		{"memory size 16", wire.SimulateRequest{Memory: []wire.MemInit{
			{Addr: 0x1000, Size: 4, Val: 1},
			{Addr: 0x2000, Size: 16, Val: 1},
		}}, "memory[1]: size 16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Version, tc.req.Hash, tc.req.Trip = wire.Version, cr.Hash, 10
			resp, body := post(t, ts.URL+"/v2/simulate", tc.req)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.want)) {
				t.Fatalf("got %s %s, want 400 naming %q", resp.Status, body, tc.want)
			}
		})
	}
	// Every size the store has a form for is accepted.
	ok := wire.SimulateRequest{Version: wire.Version, Hash: cr.Hash, Trip: 10, Memory: []wire.MemInit{
		{Addr: 0x1000, Val: 1}, {Addr: 0x1008, Size: 1}, {Addr: 0x1010, Size: 2},
		{Addr: 0x1018, Size: 4}, {Addr: 0x1020, Size: 8}, {Addr: 0x1028, Float: true, FVal: 1.5},
	}}
	if resp, body := post(t, ts.URL+"/v2/simulate", ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid initializers: %s: %s", resp.Status, body)
	}
}

// TestValidation exercises the request validation paths.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxTrip: 1000})
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"malformed json", "/v2/compile", "{", http.StatusBadRequest},
		{"wrong version", "/v2/compile", `{"v":9,"loop":{"v":1,"body":[]},"options":{}}`, http.StatusBadRequest},
		{"no loop", "/v2/compile", `{"v":1,"options":{}}`, http.StatusBadRequest},
		{"bad mode", "/v2/compile", `{"v":1,"loop":{"v":1,"body":[]},"options":{"mode":"warp"}}`, http.StatusBadRequest},
		{"zero trip", "/v2/simulate", `{"v":1,"hash":"x","trip":0}`, http.StatusBadRequest},
		{"trip too big", "/v2/simulate", `{"v":1,"hash":"x","trip":1000000}`, http.StatusBadRequest},
		{"hash and loop", "/v2/simulate", `{"v":1,"hash":"x","loop":{"v":1,"body":[]},"trip":5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("got %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// metricsDoc is the subset of /metrics the tests assert on.
type metricsDoc struct {
	CompileRequests int64 `json:"compile_requests"`
	CompileErrors   int64 `json:"compile_errors"`
	CacheHits       int64 `json:"cache_hits"`
	CacheDedups     int64 `json:"cache_dedups"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEvictions  int64 `json:"cache_evictions"`
	CacheEntries    int   `json:"cache_entries"`
	InFlight        int64 `json:"in_flight"`
	BatchRequests   int64 `json:"batch_requests"`
	VerifyRuns      int64 `json:"verify_runs"`
	VerifyFailures  int64 `json:"verify_failures"`
	CompileLatency  struct {
		Count int64 `json:"count"`
	} `json:"compile_latency"`
}

// TestConcurrentCompiles is the acceptance-criteria integration test: 96
// concurrent /v2/compile requests over a mix of duplicate and distinct
// loops (run under -race in CI). All must succeed; the duplicates must be
// served by the artifact cache or deduplicated in flight, and the counts
// must be visible in /metrics.
func TestConcurrentCompiles(t *testing.T) {
	const (
		distinct = 8
		workers  = 96
	)
	srv, ts := newTestServer(t, server.Config{PoolSize: 8, CacheCapacity: 64})

	// Pre-encode the request bodies (one per distinct loop).
	bodies := make([][]byte, distinct)
	hashes := make(map[string]bool)
	for i := range bodies {
		req := compileRequest(t, copyAddLoop(int64(i)))
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[h] = true
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}
	if len(hashes) != distinct {
		t.Fatalf("expected %d distinct hashes, got %d", distinct, len(hashes))
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		gotHash = make(map[int]string)
		errs    []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := w % distinct
			resp, err := http.Post(ts.URL+"/v2/compile", "application/json", bytes.NewReader(bodies[idx]))
			if err != nil {
				mu.Lock()
				errs = append(errs, err.Error())
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("worker %d: %s: %s", w, resp.Status, data))
				mu.Unlock()
				return
			}
			var cr wire.CompileResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				mu.Lock()
				errs = append(errs, err.Error())
				mu.Unlock()
				return
			}
			mu.Lock()
			if prev, ok := gotHash[idx]; ok && prev != cr.Hash {
				errs = append(errs, fmt.Sprintf("loop %d hashed to both %s and %s", idx, prev, cr.Hash))
			}
			gotHash[idx] = cr.Hash
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d of %d requests failed; first: %s", len(errs), workers, errs[0])
	}
	for idx, h := range gotHash {
		if !hashes[h] {
			t.Fatalf("loop %d returned unknown hash %s", idx, h)
		}
	}

	var m metricsDoc
	get(t, ts.URL+"/metrics", &m)
	if m.CompileRequests != workers {
		t.Fatalf("metrics: compile_requests = %d, want %d", m.CompileRequests, workers)
	}
	if m.CompileErrors != 0 {
		t.Fatalf("metrics: compile_errors = %d", m.CompileErrors)
	}
	if m.CacheMisses != distinct {
		t.Fatalf("metrics: cache_misses = %d, want %d (one real compile per distinct loop)", m.CacheMisses, distinct)
	}
	if m.CacheHits+m.CacheDedups != workers-distinct {
		t.Fatalf("metrics: hits %d + dedups %d != %d duplicate requests", m.CacheHits, m.CacheDedups, workers-distinct)
	}
	if m.CacheEntries != distinct {
		t.Fatalf("metrics: cache_entries = %d, want %d", m.CacheEntries, distinct)
	}
	if m.CompileLatency.Count != workers {
		t.Fatalf("metrics: latency count = %d, want %d", m.CompileLatency.Count, workers)
	}
	if m.InFlight != 0 {
		t.Fatalf("metrics: in_flight = %d after drain", m.InFlight)
	}
	if got := srv.Cache().Len(); got != distinct {
		t.Fatalf("cache holds %d artifacts, want %d", got, distinct)
	}
}

// TestLRUEviction: a cache of capacity 2 keeps only the two most recent
// artifacts and counts evictions.
func TestLRUEviction(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{CacheCapacity: 2})
	for i := 0; i < 4; i++ {
		resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(int64(100+i))))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: %s: %s", i, resp.Status, body)
		}
	}
	if got := srv.Cache().Len(); got != 2 {
		t.Fatalf("cache holds %d, want 2", got)
	}
	var m metricsDoc
	get(t, ts.URL+"/metrics", &m)
	if m.CacheEvictions != 2 {
		t.Fatalf("cache_evictions = %d, want 2", m.CacheEvictions)
	}
}

// TestHealthzAndShutdown checks liveness and the drain path.
func TestHealthzAndShutdown(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	var h map[string]string
	get(t, ts.URL+"/healthz", &h)
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	get(t, ts.URL+"/healthz", &h)
	if h["status"] != "draining" {
		t.Fatalf("healthz after shutdown: %v", h)
	}
	resp, _ := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(55)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile after shutdown: got %s, want 503", resp.Status)
	}
}

// TestCachedSpeedup asserts the acceptance criterion that a cached
// compile is at least an order of magnitude faster than a cold one,
// timing the server's own handling of each request (in-process
// ServeHTTP). A loopback HTTP round trip adds the same ≈50–100 µs to both
// kinds, which is most of a cached request's time and, as the cold path
// gets cheaper, would push the ratio toward the bound without the cache
// getting any slower. Cold and cached requests alternate, so load from
// elsewhere on the machine falls on both kinds alike, and each kind is
// summarized by its median, which a few descheduled requests or a GC
// cycle cannot move.
func TestCachedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing assertions are not meaningful under the race detector")
	}
	srv := server.New(server.Config{CacheCapacity: 1024})
	t.Cleanup(srv.Close)
	// The wide xor kernel is the most expensive archetype to schedule
	// (large body, big II search space), which makes it the representative
	// workload for the cold path: a cache hit skips all of that work.
	gen, _ := workload.MultiStreamXor(12, 64)
	base, err := wire.NewCompileRequest(gen(), ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000})
	if err != nil {
		t.Fatal(err)
	}

	timeServe := func(body []byte) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v2/compile", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("compile: status %d: %s", rec.Code, rec.Body)
		}
		return d
	}

	const coldN, warmPerCold = 25, 10
	coldBodies := make([][]byte, coldN)
	for i := range coldBodies {
		// Each cold sample is the same heavy loop under a distinct name, so
		// every request is a genuine cache miss doing identical compile work.
		cp := *base
		cp.Loop = mutateName(t, base.Loop, fmt.Sprintf("xor%d", i))
		data, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		coldBodies[i] = data
	}
	warmBody, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	timeServe(warmBody) // populate the cache

	cold := make([]time.Duration, 0, coldN)
	warm := make([]time.Duration, 0, coldN*warmPerCold)
	for _, b := range coldBodies {
		cold = append(cold, timeServe(b))
		for range warmPerCold {
			warm = append(warm, timeServe(warmBody))
		}
	}
	slices.Sort(cold)
	slices.Sort(warm)
	coldMed, warmMed := cold[len(cold)/2], warm[len(warm)/2]

	t.Logf("cold median %v, cached median %v (%.1fx)", coldMed, warmMed, float64(coldMed)/float64(warmMed))
	if coldMed < 10*warmMed {
		t.Fatalf("cached compile not >=10x faster: cold median %v vs cached median %v", coldMed, warmMed)
	}
}

// mutateName rewrites the loop name inside an encoded loop so the content
// hash changes while the compilation work stays identical.
func mutateName(t testing.TB, loop json.RawMessage, name string) json.RawMessage {
	t.Helper()
	l, err := ir.DecodeLoop(loop)
	if err != nil {
		t.Fatal(err)
	}
	l.Name = name
	data, err := ir.EncodeLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// slowWriter is a ResponseWriter whose every body write takes delay.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(p)
}

// TestLatencyCoversResponseWrite: the compile, simulate and batch
// latency histograms time each request through its response write, as
// the hot path does, so a slow client shows up in them.
func TestLatencyCoversResponseWrite(t *testing.T) {
	const delay = 50 * time.Millisecond
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	serve := func(path string, body any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		r.Header.Set("Content-Type", "application/json")
		w := slowWriter{httptest.NewRecorder(), delay}
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
	}
	req := compileRequest(t, copyAddLoop(5))
	serve("/v2/compile", req)
	serve("/v2/simulate", &wire.SimulateRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options, Trip: 10})
	serve("/v2/compile-batch", &wire.CompileBatchRequest{Version: wire.Version,
		Items: []wire.CompileItem{{Loop: req.Loop, Options: req.Options}}})

	doc, _, _ := server.RenderMetrics(srv)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compile_latency", "simulate_latency", "batch_latency"} {
		var h struct {
			Count int     `json:"count"`
			SumMs float64 `json:"sum_ms"`
		}
		if err := json.Unmarshal(m[name], &h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Count != 1 || h.SumMs < float64(delay/time.Millisecond) {
			t.Errorf("%s: count %d, sum %.2f ms; want one request of at least %v", name, h.Count, h.SumMs, delay)
		}
	}
}
