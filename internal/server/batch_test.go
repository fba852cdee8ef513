package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"ltsp/internal/server"
	"ltsp/internal/wire"
)

// TestCompileBatch shards a mixed batch — distinct loops, an exact
// duplicate, and a broken item — and checks per-item results come back
// in request order with per-item errors, shared artifact hashes, and
// singleflight dedup between the duplicates.
func TestCompileBatch(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{PoolSize: 3})

	mk := func(k int64) wire.CompileItem {
		req := compileRequest(t, copyAddLoop(k))
		return wire.CompileItem{Loop: req.Loop, Options: req.Options}
	}
	batch := wire.CompileBatchRequest{
		Version: wire.Version,
		Items: []wire.CompileItem{
			mk(101), mk(102),
			mk(103), mk(103), // identical pair: singleflight or cache hit
			{}, // no loop: per-item error
			mk(104),
		},
	}
	resp, body := post(t, ts.URL+"/v2/compile-batch", &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s: %s", resp.Status, body)
	}
	var br wire.CompileBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(batch.Items) {
		t.Fatalf("batch returned %d items, want %d", len(br.Items), len(batch.Items))
	}
	for i, it := range br.Items {
		if i == 4 {
			if it.Error == "" || it.CompileResponse != nil {
				t.Fatalf("item 4: want per-item error, got %+v", it)
			}
			continue
		}
		if it.Error != "" || it.CompileResponse == nil {
			t.Fatalf("item %d failed: %q", i, it.Error)
		}
		if !it.Pipelined || it.Hash == "" {
			t.Fatalf("item %d: implausible result %+v", i, it)
		}
	}
	if br.Items[2].Hash != br.Items[3].Hash {
		t.Fatalf("identical items hashed differently: %s vs %s", br.Items[2].Hash, br.Items[3].Hash)
	}
	if br.Items[2].Cached == br.Items[3].Cached {
		t.Fatalf("identical pair: want exactly one compile and one dedup/cache hit, got cached=%v/%v",
			br.Items[2].Cached, br.Items[3].Cached)
	}
	if br.Items[0].Hash == br.Items[1].Hash {
		t.Fatal("distinct loops share a hash")
	}

	// Batch items share the artifact cache with single compiles.
	single, sbody := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(101)))
	if single.StatusCode != http.StatusOK {
		t.Fatalf("single compile after batch: %s", single.Status)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(sbody, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached || cr.Hash != br.Items[0].Hash {
		t.Fatalf("single compile did not hit the batch's artifact: cached=%v hash=%s want %s",
			cr.Cached, cr.Hash, br.Items[0].Hash)
	}

	m := srv.Metrics()
	if got := m.BatchRequests.Load(); got != 1 {
		t.Errorf("batch_requests = %d, want 1", got)
	}
	if got := m.BatchItems.Load(); got != int64(len(batch.Items)) {
		t.Errorf("batch_items = %d, want %d", got, len(batch.Items))
	}
	if got := m.BatchItemErrors.Load(); got != 1 {
		t.Errorf("batch_item_errors = %d, want 1", got)
	}
	if got := m.InFlight.Load(); got != 0 {
		t.Errorf("in_flight after batch = %d, want 0", got)
	}
}

// TestCompileBatchValidation covers the batch-level rejections.
func TestCompileBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxBatchItems: 2})

	item := func(k int64) wire.CompileItem {
		req := compileRequest(t, copyAddLoop(k))
		return wire.CompileItem{Loop: req.Loop, Options: req.Options}
	}
	cases := []struct {
		name string
		req  wire.CompileBatchRequest
		code int
	}{
		{"empty", wire.CompileBatchRequest{Version: wire.Version}, http.StatusBadRequest},
		{"bad version", wire.CompileBatchRequest{Version: 99, Items: []wire.CompileItem{item(1)}}, http.StatusBadRequest},
		{"too many", wire.CompileBatchRequest{Version: wire.Version, Items: []wire.CompileItem{item(1), item(2), item(3)}}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v2/compile-batch", &tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
	}
}

// TestCompileBatchLargerThanPool checks a batch wider than the worker
// pool drains fully through the bounded slots.
func TestCompileBatchLargerThanPool(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 2})
	var items []wire.CompileItem
	for k := int64(0); k < 9; k++ {
		req := compileRequest(t, copyAddLoop(200+k))
		items = append(items, wire.CompileItem{Loop: req.Loop, Options: req.Options})
	}
	resp, body := post(t, ts.URL+"/v2/compile-batch", &wire.CompileBatchRequest{Version: wire.Version, Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s: %s", resp.Status, body)
	}
	var br wire.CompileBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("returned %d items, want %d", len(br.Items), len(items))
	}
	for i, it := range br.Items {
		if it.Error != "" || it.CompileResponse == nil || it.Hash == "" {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
}
