package server_test

// The chaos suite: the resilience layer (deadline propagation, load
// shedding, cooperative cancellation, client retries/hedging) exercised
// against seeded fault injection. CI runs this file under -race with a
// pinned seed (LTSP_CHAOS_SEED); the seed makes every fault sequence —
// and therefore every assertion — deterministic.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ltsp/internal/faultinject"
	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/ltspclient"
)

// chaosSeed returns the suite's fault/jitter seed: LTSP_CHAOS_SEED when
// set (the CI chaos job pins it), a fixed default otherwise.
func chaosSeed(t testing.TB) int64 {
	if s := os.Getenv("LTSP_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("LTSP_CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 20080608 // CGO 2008, for the paper
}

// checkGoroutineLeaks registers a cleanup that fails the test if the
// goroutine count has not returned to (near) its starting level. It must
// run BEFORE the server/httptest cleanups register, so that — cleanups
// being LIFO — the server is fully shut down by the time it measures.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC() // nudge finalizer/timer goroutines to settle
			now := runtime.NumGoroutine()
			// A small tolerance absorbs runtime-internal goroutines
			// (GC workers, timer wheel) that come and go on their own.
			if now <= before+3 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// newChaosServer wires a test server behind the fault injector and a
// client with deterministic backoff jitter pointed at it.
func newChaosServer(t *testing.T, cfg server.Config, fcfg faultinject.Config, ccfg ltspclient.Config) (*server.Server, *faultinject.Injector, *ltspclient.Client) {
	t.Helper()
	srv := server.New(cfg)
	inj := faultinject.Wrap(srv, fcfg)
	ts := httptest.NewServer(inj)
	t.Cleanup(ts.Close)
	ccfg.BaseURL = ts.URL
	client, err := ltspclient.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, inj, client
}

// TestChaosBatchUnderFaults is the acceptance scenario: a 200-item
// workload — every 10th item broken — compiled through a server
// injecting 30% latency spikes and 10% connection drops. The client's
// retries must absorb every injected fault, the per-item errors must
// land exactly on the broken items, the healthy items must all compile,
// and nothing may leak.
func TestChaosBatchUnderFaults(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := chaosSeed(t)
	_, inj, client := newChaosServer(t,
		server.Config{PoolSize: 4, CacheCapacity: 512, MaxBatchItems: 64},
		faultinject.Config{
			Seed:        seed,
			LatencyProb: 0.3, LatencyMin: time.Millisecond, LatencyMax: 10 * time.Millisecond,
			DropProb: 0.1,
		},
		ltspclient.Config{
			Seed:        seed,
			MaxRetries:  6,
			BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
			BackoffBudget: 5 * time.Second,
		})

	const total, chunk = 200, 20
	items := make([]wire.CompileItem, total)
	for i := range items {
		if (i+1)%10 == 0 {
			// Broken item: undecodable loop — a permanent per-item error.
			items[i] = wire.CompileItem{Loop: json.RawMessage(`{"not":"a loop"}`)}
			continue
		}
		req := compileRequest(t, copyAddLoop(int64(i)))
		items[i] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var ok, failed int
	for base := 0; base < total; base += chunk {
		resp, err := client.CompileBatch(ctx, items[base:base+chunk])
		if err != nil {
			t.Fatalf("batch [%d,%d): %v (stats %+v, faults %+v)", base, base+chunk, err, client.Stats(), inj.Stats())
		}
		if len(resp.Items) != chunk {
			t.Fatalf("batch [%d,%d): %d results, want %d", base, base+chunk, len(resp.Items), chunk)
		}
		for j, item := range resp.Items {
			i := base + j
			if (i+1)%10 == 0 {
				if item.Error == "" || item.ErrorCode != "invalid_request" || item.Retryable {
					t.Fatalf("item %d (broken): got %+v, want permanent invalid_request error", i, item)
				}
				failed++
				continue
			}
			if item.Error != "" {
				t.Fatalf("item %d (healthy): unexpected error %q (code %s)", i, item.Error, item.ErrorCode)
			}
			if item.CompileResponse == nil || item.Hash == "" {
				t.Fatalf("item %d (healthy): no compile response", i)
			}
			ok++
		}
	}
	if ok != total-total/10 || failed != total/10 {
		t.Fatalf("tally: %d ok, %d failed; want %d ok, %d failed", ok, failed, total-total/10, total/10)
	}

	// The injected drops must actually have happened and been absorbed:
	// every retry is accounted for, and the retry volume stays within
	// the configured bounds rather than spiraling.
	st, fst := client.Stats(), inj.Stats()
	if fst.Drops == 0 {
		t.Fatalf("fault injector never dropped a connection (faults %+v) — the chaos run exercised nothing", fst)
	}
	if st.Retries != fst.Drops {
		t.Errorf("client retries (%d) != injected drops (%d): a retry happened without a fault or a fault went unretried", st.Retries, fst.Drops)
	}
	calls := int64(total / chunk)
	if st.Attempts != calls+st.Retries {
		t.Errorf("attempts (%d) != calls (%d) + retries (%d)", st.Attempts, calls, st.Retries)
	}
	if maxAttempts := calls * 7; st.Attempts > maxAttempts {
		t.Errorf("attempts (%d) exceed the retry bound (%d)", st.Attempts, maxAttempts)
	}
	if st.BackoffSlept > 5*time.Second {
		t.Errorf("backoff slept %s, beyond the 5s budget", st.BackoffSlept)
	}
}

// TestChaosInjectedErrorsAreRetried: injected 503 envelopes (code
// "injected", retryable) are retried by the client and eventually
// succeed, and the typed error surfaces when retries are disabled.
func TestChaosInjectedErrorsAreRetried(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := chaosSeed(t)
	_, inj, client := newChaosServer(t,
		server.Config{PoolSize: 2},
		faultinject.Config{Seed: seed, ErrProb: 0.5},
		ltspclient.Config{
			Seed:        seed,
			MaxRetries:  10,
			BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		})

	ctx := context.Background()
	for k := int64(0); k < 8; k++ {
		if _, err := client.Compile(ctx, compileRequest(t, copyAddLoop(1000+k))); err != nil {
			t.Fatalf("compile %d: %v (faults %+v)", k, err, inj.Stats())
		}
	}
	if inj.Stats().Errors == 0 {
		t.Fatal("injector produced no errors; the test exercised nothing")
	}
	if client.Stats().Retries == 0 {
		t.Fatal("client never retried despite injected errors")
	}
}

// TestShedsImpossibleDeadline: a request whose declared deadline cannot
// be met — given the observed median compile time and the queue — is
// rejected with 503 + Retry-After and the "overloaded" envelope code
// before it consumes a worker slot.
func TestShedsImpossibleDeadline(t *testing.T) {
	checkGoroutineLeaks(t)
	srv, ts := newTestServer(t, server.Config{PoolSize: 1})
	// Teach the shedder that compiles take ~1s without running any: the
	// admission estimate for a fresh request is then (0+0+1)x1s/1 = 1s.
	srv.Shedder().Prime(time.Second)

	req := compileRequest(t, copyAddLoop(7))
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.DeadlineHeader, "50") // 50ms budget vs 1s estimate
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed: got %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != wire.CodeOverloaded || !env.Error.Retryable {
		t.Fatalf("shed envelope = %+v, want retryable overloaded", env.Error)
	}

	// Shed before work: the request must not have held a worker slot or
	// produced a compile, only the shed/rejected counters move.
	var m struct {
		Shed           int64 `json:"shed"`
		Rejected       int64 `json:"rejected"`
		CacheMisses    int64 `json:"cache_misses"`
		CompileLatency struct {
			Count int64 `json:"count"`
		} `json:"compile_latency"`
	}
	get(t, ts.URL+"/metrics", &m)
	if m.Shed != 1 || m.Rejected != 1 {
		t.Fatalf("metrics after shed: shed=%d rejected=%d, want 1/1", m.Shed, m.Rejected)
	}
	if m.CacheMisses != 0 {
		t.Fatalf("shed request still compiled (cache_misses=%d)", m.CacheMisses)
	}

	// The identical request WITH headroom sails through: shedding is
	// deadline-aware, not a blanket rejection.
	resp2, body := post(t, ts.URL+"/v2/compile", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unshed compile: %s: %s", resp2.Status, body)
	}
}

// TestShedCountsQueuedBatchItems: batch items waiting for a worker slot
// count in the queue depth the shedder predicts from. With one slot held
// by a blocked compile and eight batch items queued behind it, a compile
// with a 500ms budget faces (8+1+1) x 100ms = 1s: it is shed at once
// with 503 + Retry-After, not admitted to time out with 504 (which is
// what an estimate of (0+1+1) x 100ms, blind to the batch, leads to).
func TestShedCountsQueuedBatchItems(t *testing.T) {
	const items = 8
	srv, ts := newTestServer(t, server.Config{PoolSize: 1})
	srv.Shedder().Prime(100 * time.Millisecond)
	release := make(chan struct{})
	server.SetTestCompileHook(func(l *ir.Loop) {
		if l.Name == "blocker" {
			<-release
		}
	})
	defer server.SetTestCompileHook(nil)
	var pending sync.WaitGroup
	defer pending.Wait()
	defer close(release)
	send := func(path string, body any) {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		pending.Add(1)
		go func() {
			defer pending.Done()
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(payload)))
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			resp.Body.Close()
		}()
	}

	blocker := copyAddLoop(1)
	blocker.Name = "blocker"
	send("/v2/compile", compileRequest(t, blocker))
	waitFor(t, 2*time.Second, "the blocker to hold the slot", func() bool { return srv.Metrics().InFlight.Load() == 1 })

	batch := &wire.CompileBatchRequest{Version: wire.Version}
	for i := 0; i < items; i++ {
		req := compileRequest(t, copyAddLoop(int64(3000+i)))
		batch.Items = append(batch.Items, wire.CompileItem{Loop: req.Loop, Options: req.Options})
	}
	send("/v2/compile-batch", batch)
	waitFor(t, 2*time.Second, "the batch items to count in the queue depth", func() bool { return server.QueueDepth(srv) == items })

	payload, err := json.Marshal(compileRequest(t, copyAddLoop(7)))
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.DeadlineHeader, "500")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env wire.ErrorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != wire.CodeOverloaded {
		t.Fatalf("compile behind a queued batch: %s %+v, want 503 overloaded", resp.Status, env.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}

// TestBatchCancellationNoLeaks: a batch whose deadline expires before
// its items reach a worker reports a per-item deadline error for every
// item — not a wholesale batch failure — and leaves no goroutines
// behind once the response is written. The 1ns compile timeout makes
// the batch context expire before any item can start, so the outcome
// is deterministic regardless of machine speed: items lose either at
// the worker-slot wait or at the pre-compile context check.
func TestBatchCancellationNoLeaks(t *testing.T) {
	checkGoroutineLeaks(t)
	_, ts := newTestServer(t, server.Config{PoolSize: 1, CompileTimeout: time.Nanosecond})

	items := make([]wire.CompileItem, 8)
	for i := range items {
		req := compileRequest(t, copyAddLoop(int64(2000+i)))
		items[i] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
	}
	payload, err := json.Marshal(&wire.CompileBatchRequest{Version: wire.Version, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile-batch", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: got %s, want 200 with per-item errors", resp.Status)
	}
	var br wire.CompileBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i, item := range br.Items {
		if item.Error == "" {
			t.Fatalf("item %d compiled despite an already-expired batch deadline", i)
		}
		if item.ErrorCode != wire.CodeDeadlineExceeded || !item.Retryable {
			t.Fatalf("item %d: error %q code %q retryable %v, want retryable deadline_exceeded", i, item.Error, item.ErrorCode, item.Retryable)
		}
	}
}

// TestMuxErrorsUseEnvelope: even the router's own errors — unrouted
// path, wrong method — carry the structured envelope, so no error that
// leaves the server is opaque to a v2 client.
func TestMuxErrorsUseEnvelope(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodPost, "/v2/nothing-here", http.StatusNotFound, wire.CodeNotFound},
		{http.MethodGet, "/v2/compile", http.StatusMethodNotAllowed, wire.CodeInvalidRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env wire.ErrorEnvelope
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if decodeErr != nil {
			t.Fatalf("%s %s: response is not an envelope: %v", tc.method, tc.path, decodeErr)
		}
		if env.Error.Code != tc.code || env.Error.Retryable {
			t.Fatalf("%s %s: envelope %+v, want non-retryable %s", tc.method, tc.path, env.Error, tc.code)
		}
	}
}

// TestDrainEnvelope: while draining, new work is rejected with the
// "draining" code and a Retry-After hint (clients fail over to another
// replica or wait it out).
func TestDrainEnvelope(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{DrainRetryAfter: 7 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	const path = "/v2/compile"
	resp, body := post(t, ts.URL+path, compileRequest(t, copyAddLoop(3)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("%s while draining: got %s, want 503", path, resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("%s while draining: Retry-After = %q, want \"7\"", path, ra)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s drain body is not the envelope: %v: %s", path, err, body)
	}
	if env.Error.Code != wire.CodeDraining || !env.Error.Retryable {
		t.Fatalf("%s drain envelope = %+v", path, env.Error)
	}
}

// TestV2PrefixServes: a compile and the trace fetched for its hash see
// the same artifact, and POST /v1/compile is not routed: it answers with
// the not_found envelope.
func TestV2PrefixServes(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(90)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	var tr traceDoc
	get(t, ts.URL+fmt.Sprintf("/v2/artifacts/%s/trace", cr.Hash), &tr)
	if tr.Hash != cr.Hash {
		t.Fatalf("trace for compiled artifact: %q != %q", tr.Hash, cr.Hash)
	}
	resp, body = post(t, ts.URL+"/v1/compile", compileRequest(t, copyAddLoop(90)))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/compile: %s, want 404", resp.Status)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != wire.CodeNotFound {
		t.Fatalf("POST /v1/compile body = %s (%v), want the not_found envelope", body, err)
	}
	// Artifacts are read-only: replicas arrive by pull, never by push.
	preq, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/artifacts/"+cr.Hash, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Content-Type", "application/json")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	env = wire.ErrorEnvelope{}
	if err := json.NewDecoder(presp.Body).Decode(&env); err != nil || presp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != wire.CodeInvalidRequest {
		t.Fatalf("PUT /v2/artifacts/{hash}: %s, envelope %+v (%v), want 405 with the invalid_request envelope", presp.Status, env, err)
	}
}
