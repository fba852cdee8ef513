package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ltsp/internal/obs"
	"ltsp/internal/server"
)

// traceDoc is the subset of the trace endpoint body the tests assert on.
type traceDoc struct {
	Hash    string           `json:"hash"`
	Outcome string           `json:"outcome"`
	Events  []map[string]any `json:"events"`
}

// TestTraceEndpoint compiles a loop and retrieves its decision trace.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(31)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Outcome != obs.OutcomePipelined {
		t.Fatalf("compile response outcome = %q, want %q", cr.Outcome, obs.OutcomePipelined)
	}

	var m1 metricsDoc
	get(t, ts.URL+"/metrics", &m1)

	var tr traceDoc
	get(t, ts.URL+"/v2/artifacts/"+cr.Hash+"/trace", &tr)
	if tr.Hash != cr.Hash || tr.Outcome != obs.OutcomePipelined {
		t.Fatalf("trace header = %s/%s, want %s/%s", tr.Hash, tr.Outcome, cr.Hash, obs.OutcomePipelined)
	}
	if len(tr.Events) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[string]int{}
	for _, e := range tr.Events {
		k, _ := e["kind"].(string)
		if k == "" {
			t.Fatalf("event without kind: %v", e)
		}
		kinds[k]++
	}
	for _, want := range []string{"load-class", "ii-bounds", "modsched", "regalloc", "load-sched", "outcome"} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %q events; have %v", want, kinds)
		}
	}

	// Introspection must not perturb the cache-hit accounting.
	var m2 metricsDoc
	get(t, ts.URL+"/metrics", &m2)
	if m2.CacheHits != m1.CacheHits {
		t.Fatalf("trace read moved cache_hits %d -> %d", m1.CacheHits, m2.CacheHits)
	}

	// Unknown hashes are a clean 404.
	r, err := http.Get(ts.URL + "/v2/artifacts/deadbeef/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact trace: got %s, want 404", r.Status)
	}
}

// outcomeMetricsDoc is the /metrics compile_outcomes block.
type outcomeMetricsDoc struct {
	CompileOutcomes struct {
		Pipelined      int64 `json:"pipelined"`
		ReducedLatency int64 `json:"fallback_reduced_latency"`
		RaisedII       int64 `json:"fallback_raised_ii"`
		Sequential     int64 `json:"sequential"`
	} `json:"compile_outcomes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	BuildInfo     struct {
		Version string `json:"version"`
		Go      string `json:"go"`
	} `json:"build_info"`
}

// TestOutcomeCountersCountCompilesNotRequests: duplicate requests served
// from the cache (or deduplicated in flight) must not recount outcomes.
func TestOutcomeCountersCountCompilesNotRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(41)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: %s: %s", i, resp.Status, body)
		}
	}
	var m outcomeMetricsDoc
	get(t, ts.URL+"/metrics", &m)
	if m.CompileOutcomes.Pipelined != 1 {
		t.Fatalf("pipelined = %d after 3 identical requests, want 1", m.CompileOutcomes.Pipelined)
	}

	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(42)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	get(t, ts.URL+"/metrics", &m)
	if m.CompileOutcomes.Pipelined != 2 {
		t.Fatalf("pipelined = %d after a second distinct loop, want 2", m.CompileOutcomes.Pipelined)
	}
}

// TestMetricsBuildInfoAndHealthzVersion checks the uptime/build_info
// metrics block and the version echoed by /healthz.
func TestMetricsBuildInfoAndHealthzVersion(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var m outcomeMetricsDoc
	get(t, ts.URL+"/metrics", &m)
	if m.BuildInfo.Version == "" {
		t.Fatal("metrics build_info.version is empty")
	}
	if !strings.HasPrefix(m.BuildInfo.Go, "go") {
		t.Fatalf("metrics build_info.go = %q", m.BuildInfo.Go)
	}
	if m.UptimeSeconds < 0 {
		t.Fatalf("uptime_seconds = %f", m.UptimeSeconds)
	}

	var h map[string]string
	get(t, ts.URL+"/healthz", &h)
	if h["version"] != m.BuildInfo.Version {
		t.Fatalf("healthz version %q != metrics version %q", h["version"], m.BuildInfo.Version)
	}
}

// syncBuffer serializes writes so the test can read log output racelessly.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLoggingAndIDs checks the structured request log and the
// X-Request-ID response header.
func TestRequestLoggingAndIDs(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, server.Config{Logger: logger})

	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("response missing X-Request-ID")
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Fatalf("request IDs not unique: %v", ids)
	}

	// The handler logs after writing the response; give it a beat.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for {
		lines = nil
		for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if ln != "" {
				lines = append(lines, ln)
			}
		}
		if len(lines) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) < 2 {
		t.Fatalf("expected 2 log lines, got %d: %q", len(lines), buf.String())
	}
	var entry struct {
		Msg    string `json:"msg"`
		ID     string `json:"id"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v: %s", err, lines[0])
	}
	if entry.Msg != "request" || entry.Method != "GET" || entry.Path != "/healthz" || entry.Status != 200 {
		t.Fatalf("unexpected log entry: %+v", entry)
	}
	if !ids[entry.ID] {
		t.Fatalf("logged id %q not among response headers %v", entry.ID, ids)
	}
}

// TestTimedOutCompileIsCanceled: a compile whose deadline expires returns
// 504 with the deadline_exceeded envelope code, and the abandoned
// compilation is canceled instead of finishing in the background — the
// cache stays empty and the trace endpoint keeps 404ing. (Before the
// resilience redesign the server let timed-out compiles run to completion
// and cache their artifact; cooperative cancellation deliberately changes
// that so abandoned work stops burning worker slots.)
func TestTimedOutCompileIsCanceled(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{CompileTimeout: time.Nanosecond})
	req := compileRequest(t, copyAddLoop(77))
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("compile under 1ns deadline: got %s (%s), want 504", resp.Status, body)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("504 body is not the error envelope: %v: %s", err, body)
	}
	if env.Error.Code != "deadline_exceeded" || !env.Error.Retryable {
		t.Fatalf("504 envelope = %+v, want retryable deadline_exceeded", env.Error)
	}

	// The canceled compile must NOT land in the cache afterwards.
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := srv.Cache().Len(); n != 0 {
			t.Fatalf("canceled compile populated the cache (%d entries)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := http.Get(ts.URL + fmt.Sprintf("/v2/artifacts/%s/trace", hash)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace for canceled compile: got %s, want 404", resp.Status)
	}
}
