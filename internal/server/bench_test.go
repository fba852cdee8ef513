package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ltsp"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

// benchPost posts one pre-encoded compile request and discards the body.
func benchPost(b *testing.B, url string, body []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("compile: %s", resp.Status)
	}
}

// heavyCompileRequest builds a compile request for the wide xor kernel,
// the most expensive archetype to schedule, so the cold/cached benchmarks
// measure a representative compile rather than HTTP overhead.
func heavyCompileRequest(b *testing.B) *wire.CompileRequest {
	b.Helper()
	gen, _ := workload.MultiStreamXor(12, 64)
	req, err := wire.NewCompileRequest(gen(), ltsp.Options{
		Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return req
}

// BenchmarkCompileCold measures the full compile round-trip with a cache
// miss on every iteration (the same heavy loop under a distinct name, so
// each request repeats identical compile work).
func BenchmarkCompileCold(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{CacheCapacity: 1 << 20}))
	defer ts.Close()
	base := heavyCompileRequest(b)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		cp := *base
		cp.Loop = mutateName(b, base.Loop, fmt.Sprintf("xor%d", i))
		data, err := json.Marshal(&cp)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v2/compile", bodies[i])
	}
}

// BenchmarkCompileCached measures the same round-trip when every request
// hits the artifact cache. The acceptance bar for the service is that
// this is >= 10x faster than BenchmarkCompileCold (also asserted by
// TestCachedSpeedup):
//
//	go test -bench 'CompileCold|CompileCached' ./internal/server/
func BenchmarkCompileCached(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{CacheCapacity: 16}))
	defer ts.Close()
	body, err := json.Marshal(heavyCompileRequest(b))
	if err != nil {
		b.Fatal(err)
	}
	benchPost(b, ts.URL+"/v2/compile", body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v2/compile", body)
	}
}
