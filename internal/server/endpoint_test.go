package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// TestV2EndpointInstruments: every request to a work endpoint counts in
// its *_requests and *_latency, whichever way it ends — served from the
// hot map, refused before decoding, shed, timed out or turned away while
// draining — and every non-2xx response counts in compile_errors or
// simulate_errors.
func TestV2EndpointInstruments(t *testing.T) {
	const maxBody = 32 << 10
	srv, ts := newTestServer(t, server.Config{MaxBodyBytes: maxBody, TraceSample: -1})

	type tally struct{ sent, failed int64 }
	sent := map[string]*tally{"/v2/compile": {}, "/v2/simulate": {}, "/v2/compile-batch": {}}
	send := func(path string, body []byte, hdr map[string]string, want int) []byte {
		t.Helper()
		r, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %s, want %d: %s", path, resp.Status, want, data)
		}
		sent[path].sent++
		if want/100 != 2 {
			sent[path].failed++
		}
		return data
	}
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	req := compileRequest(t, copyAddLoop(3400))
	compile := mustJSON(req)
	batch := mustJSON(wire.CompileBatchRequest{Version: wire.Version,
		Items: []wire.CompileItem{{Loop: req.Loop, Options: req.Options}}})
	var cr wire.CompileResponse
	if err := json.Unmarshal(send("/v2/compile", compile, nil, http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	simulate := mustJSON(wire.SimulateRequest{Version: wire.Version, Hash: cr.Hash, Trip: 16})
	bodies := map[string][]byte{"/v2/compile": compile, "/v2/simulate": simulate, "/v2/compile-batch": batch}

	badMedia := map[string]string{"Content-Type": "application/xml"}
	oversized := bytes.Repeat([]byte(" "), maxBody+1)
	for path, body := range bodies {
		send(path, body, nil, http.StatusOK)
		send(path, body, badMedia, http.StatusUnsupportedMediaType)
		if path == "/v2/simulate" { // JSON only
			send(path, body, map[string]string{"Content-Type": binary.ContentType}, http.StatusUnsupportedMediaType)
		}
		send(path, oversized, nil, http.StatusRequestEntityTooLarge)
		send(path, []byte("{"), nil, http.StatusBadRequest)
	}

	// The hot map answers a byte-identical repeat before any decode.
	hits := srv.Metrics().CacheHits.Load()
	send("/v2/compile", compile, nil, http.StatusOK)
	if srv.Metrics().CacheHits.Load() != hits+1 {
		t.Fatal("repeat compile was not a cache hit")
	}

	// A compile that outlives its deadline is a 504.
	entered, release := make(chan struct{}), make(chan struct{})
	server.SetTestCompileHook(func(*ir.Loop) { close(entered); <-release })
	send("/v2/compile", mustJSON(compileRequest(t, copyAddLoop(3401))),
		map[string]string{wire.DeadlineHeader: "100"}, http.StatusGatewayTimeout)
	<-entered
	server.SetTestCompileHook(nil)
	close(release)

	// A deadline the primed shedder predicts cannot be met is shed.
	srv.Shedder().Prime(time.Second)
	send("/v2/compile", mustJSON(compileRequest(t, copyAddLoop(3402))),
		map[string]string{wire.DeadlineHeader: "50"}, http.StatusServiceUnavailable)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for path, body := range bodies {
		send(path, body, nil, http.StatusServiceUnavailable)
	}

	type hist struct {
		Count int64 `json:"count"`
	}
	var m struct {
		CompileRequests  int64 `json:"compile_requests"`
		CompileErrors    int64 `json:"compile_errors"`
		CompileLatency   hist  `json:"compile_latency"`
		SimulateRequests int64 `json:"simulate_requests"`
		SimulateErrors   int64 `json:"simulate_errors"`
		SimulateLatency  hist  `json:"simulate_latency"`
		BatchRequests    int64 `json:"batch_requests"`
		BatchLatency     hist  `json:"batch_latency"`
	}
	get(t, ts.URL+"/metrics", &m)
	c, s, b := sent["/v2/compile"], sent["/v2/simulate"], sent["/v2/compile-batch"]
	for _, row := range []struct {
		name      string
		got, want int64
	}{
		{"compile_requests", m.CompileRequests, c.sent},
		{"compile_latency.count", m.CompileLatency.Count, c.sent},
		{"compile_errors", m.CompileErrors, c.failed},
		{"simulate_requests", m.SimulateRequests, s.sent},
		{"simulate_latency.count", m.SimulateLatency.Count, s.sent},
		{"simulate_errors", m.SimulateErrors, s.failed},
		{"batch_requests", m.BatchRequests, b.sent},
		{"batch_latency.count", m.BatchLatency.Count, b.sent},
	} {
		if row.got != row.want {
			t.Errorf("%s = %d, want %d", row.name, row.got, row.want)
		}
	}
}
