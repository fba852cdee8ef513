package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// TestCompileBatch shards a mixed batch — distinct loops, an exact
// duplicate, and a broken item — and checks per-item results come back
// in request order with per-item errors, shared artifact hashes, and
// the duplicate answered as a cached copy of the item before it.
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
	if br.Items[2].Cached || !br.Items[3].Cached {
		t.Fatalf("identical pair: want item 2 compiled and item 3 its cached copy, got cached=%v/%v",
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

// TestBatchMatchesSingles sends every workload loop as one batch, at the
// options of the server's two callers in this repository (ltsp-bench
// -server and the ltsp command), in JSON and in binary. Each item must
// answer what a single /v2/compile of its loop answers on a fresh
// server: hash, outcome, II, stages, listing and loads.
func TestBatchMatchesSingles(t *testing.T) {
	var loops []*ir.Loop
	for _, b := range workload.All() {
		for i := range b.Loops {
			loops = append(loops, b.Loops[i].Gen())
		}
	}
	callers := []struct {
		name string
		opts ltsp.Options
	}{
		{"sweep", ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000}},
		{"cli", ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, BoostDelinquent: true, TripEstimate: 100}},
	}
	for _, c := range callers {
		_, singles := newTestServer(t, server.Config{})
		want := make([]*wire.CompileResponse, len(loops))
		items := make([]wire.CompileItem, len(loops))
		opts := make([]wire.Options, len(loops))
		for i, l := range loops {
			req, err := wire.NewCompileRequest(l, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := post(t, singles.URL+"/v2/compile", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: single %s: %s: %s", c.name, l.Name, resp.Status, body)
			}
			if err := json.Unmarshal(body, &want[i]); err != nil {
				t.Fatal(err)
			}
			items[i] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
			opts[i] = req.Options
		}
		check := func(t *testing.T, got []wire.BatchItemResult) {
			if len(got) != len(want) {
				t.Fatalf("batch returned %d items, want %d", len(got), len(want))
			}
			for i, it := range got {
				w := want[i]
				if it.Error != "" || it.CompileResponse == nil {
					t.Fatalf("item %d (%s): %s", i, loops[i].Name, it.Error)
				}
				if it.Hash != w.Hash || it.Outcome != w.Outcome || it.II != w.II || it.Stages != w.Stages ||
					it.Listing != w.Listing || !reflect.DeepEqual(it.Loads, w.Loads) {
					t.Errorf("item %d (%s): batch answers hash %.12s outcome %s II %d stages %d, single %.12s %s %d %d (listing or loads equal: %v, %v)",
						i, loops[i].Name, it.Hash, it.Outcome, it.II, it.Stages, w.Hash, w.Outcome, w.II, w.Stages,
						it.Listing == w.Listing, reflect.DeepEqual(it.Loads, w.Loads))
				}
			}
		}
		t.Run(c.name+"/json", func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{})
			resp, body := post(t, ts.URL+"/v2/compile-batch", &wire.CompileBatchRequest{Version: wire.Version, Items: items})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: %s: %s", resp.Status, body)
			}
			var br wire.CompileBatchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				t.Fatal(err)
			}
			check(t, br.Items)
		})
		t.Run(c.name+"/binary", func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{})
			frame, err := binary.EncodeCompileBatch(nil, loops, opts)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postRaw(t, ts.URL+"/v2/compile-batch", binary.ContentType, binary.ContentType, frame)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: %s: %s", resp.Status, body)
			}
			br, err := binary.DecodeCompileBatchResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			check(t, br.Items)
		})
	}
}

// undefinedReadLoop adds a register nothing defines or initializes: the
// loop decodes, but a forced pipelining fails to build its dependences.
func undefinedReadLoop() *ir.Loop {
	l := ir.NewLoop("undefined")
	a, b, r := l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(ir.Add(r, a, b))
	l.Init(a, 1)
	l.LiveOut = []ir.Reg{a}
	return l
}

// TestBatchDuplicatesResolveOnce: a batch of 5 copies of one loop, 2
// copies of a broken item and 2 distinct loops, in JSON and in binary,
// compiles and looks up each distinct item once. Every copy answers its
// first item's result: the same hash, cached, identical item JSON; the
// same error and code for the broken item, which counts twice in
// batch_item_errors.
func TestBatchDuplicatesResolveOnce(t *testing.T) {
	var compiles atomic.Int64
	server.SetTestCompileHook(func(*ir.Loop) { compiles.Add(1) })
	defer server.SetTestCompileHook(nil)

	on := true
	same, other, third := copyAddLoop(601), copyAddLoop(602), copyAddLoop(603)
	defOpts := compileRequest(t, same).Options
	broken := undefinedReadLoop()
	brokenOpts := wire.Options{Pipeline: &on}
	loops := []*ir.Loop{same, other, same, broken, same, third, same, broken, same}
	copies, brokenAt := []int{0, 2, 4, 6, 8}, []int{3, 7}
	opts := make([]wire.Options, len(loops))
	for i, l := range loops {
		opts[i] = defOpts
		if l == broken {
			opts[i] = brokenOpts
		}
	}
	const distinct = 4

	check := func(t *testing.T, srv *server.Server, base string, items []wire.BatchItemResult) {
		if len(items) != len(loops) {
			t.Fatalf("batch returned %d items, want %d", len(items), len(loops))
		}
		if n := compiles.Load(); n != distinct {
			t.Errorf("compile hook fired %d times, want once per distinct loop (%d)", n, distinct)
		}
		st := readStages(t, base)
		for _, stage := range []string{"mem_lookup", "batch_item"} {
			if n := st.Stages[stage].Count; n != distinct {
				t.Errorf("%s stage counted %d, want %d distinct items", stage, n, distinct)
			}
		}
		firstItem := items[copies[0]]
		if firstItem.CompileResponse == nil || firstItem.Cached {
			t.Fatalf("first copy: want a fresh compile, got %+v", firstItem)
		}
		want := *firstItem.CompileResponse
		want.Cached = true
		wantJSON, err := json.Marshal(wire.BatchItemResult{CompileResponse: &want})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range copies[1:] {
			got, err := json.Marshal(items[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("copy %d answers\n%s\nwant the first item's result, cached:\n%s", i, got, wantJSON)
			}
		}
		b0, b1 := items[brokenAt[0]], items[brokenAt[1]]
		if b0.Error == "" || b0.CompileResponse != nil {
			t.Fatalf("broken item: want a per-item error, got %+v", b0)
		}
		if b1.Error != b0.Error || b1.ErrorCode != b0.ErrorCode || b1.Retryable != b0.Retryable || b1.CompileResponse != nil {
			t.Errorf("broken copies differ: %+v vs %+v", b0, b1)
		}
		if n := srv.Metrics().BatchItemErrors.Load(); n != 2 {
			t.Errorf("batch_item_errors = %d, want 2", n)
		}
		if n := srv.Metrics().CacheHits.Load(); n != int64(len(copies)-1) {
			t.Errorf("cache_hits = %d, want one per copy (%d)", n, len(copies)-1)
		}
	}

	t.Run("json", func(t *testing.T) {
		compiles.Store(0)
		srv, ts := newTestServer(t, server.Config{})
		req := wire.CompileBatchRequest{Version: wire.Version}
		for i, l := range loops {
			data, err := ir.EncodeLoop(l)
			if err != nil {
				t.Fatal(err)
			}
			req.Items = append(req.Items, wire.CompileItem{Loop: data, Options: opts[i]})
		}
		resp, body := post(t, ts.URL+"/v2/compile-batch", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %s: %s", resp.Status, body)
		}
		var br wire.CompileBatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		check(t, srv, ts.URL, br.Items)
	})
	t.Run("binary", func(t *testing.T) {
		compiles.Store(0)
		srv, ts := newTestServer(t, server.Config{})
		frame, err := binary.EncodeCompileBatch(nil, loops, opts)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postRaw(t, ts.URL+"/v2/compile-batch", binary.ContentType, binary.ContentType, frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %s: %s", resp.Status, body)
		}
		br, err := binary.DecodeCompileBatchResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		check(t, srv, ts.URL, br.Items)
	})
}

// TestBatchCopiesOfTimedOutItem: when a batch's deadline passes while
// its item waits for a worker slot, the item's copies fail with it and
// count as timeouts too, as they did when every copy waited on its own.
func TestBatchCopiesOfTimedOutItem(t *testing.T) {
	const copies = 3
	srv, ts := newTestServer(t, server.Config{PoolSize: 1})
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

	blocker := copyAddLoop(1)
	blocker.Name = "blocker"
	blockerBody, err := json.Marshal(compileRequest(t, blocker))
	if err != nil {
		t.Fatal(err)
	}
	pending.Add(1)
	go func() {
		defer pending.Done()
		resp, err := http.Post(ts.URL+"/v2/compile", "application/json", bytes.NewReader(blockerBody))
		if err != nil {
			t.Errorf("blocker: %v", err)
			return
		}
		resp.Body.Close()
	}()
	waitFor(t, 2*time.Second, "the blocker to hold the slot", func() bool { return srv.Metrics().InFlight.Load() == 1 })

	req := compileRequest(t, copyAddLoop(701))
	batch := &wire.CompileBatchRequest{Version: wire.Version}
	for i := 0; i < copies; i++ {
		batch.Items = append(batch.Items, wire.CompileItem{Loop: req.Loop, Options: req.Options})
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile-batch", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.DeadlineHeader, "100")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br wire.CompileBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != copies {
		t.Fatalf("batch returned %d items, want %d", len(br.Items), copies)
	}
	for i, item := range br.Items {
		if item.ErrorCode != wire.CodeDeadlineExceeded || !item.Retryable {
			t.Fatalf("item %d: error %q code %q retryable %v, want retryable deadline_exceeded", i, item.Error, item.ErrorCode, item.Retryable)
		}
	}
	if n := srv.Metrics().Timeouts.Load(); n != copies {
		t.Errorf("timeouts = %d, want one per item (%d)", n, copies)
	}
	if n := srv.Metrics().BatchItemErrors.Load(); n != copies {
		t.Errorf("batch_item_errors = %d, want %d", n, copies)
	}
}
