package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ltsp/internal/cluster"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// stageDoc picks the counters and per-stage histogram counts these tests
// compare.
type stageDoc struct {
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	Stages     map[string]struct {
		Count int64 `json:"count"`
	} `json:"stage_latency"`
	Cluster struct {
		SyncErrors int64 `json:"sync_errors"`
	} `json:"cluster"`
}

func readStages(t *testing.T, base string) stageDoc {
	t.Helper()
	var d stageDoc
	get(t, base+"/metrics", &d)
	return d
}

// seedStore compiles req on a server over a store in dir, then shuts the
// server down and closes the store, leaving the artifact on disk for a
// warm restart. It returns the artifact hash.
func seedStore(t *testing.T, dir string, req *wire.CompileRequest) string {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st})
	ts := httptest.NewServer(srv)
	resp, body := post(t, ts.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.Close()
	st.Close()
	return cr.Hash
}

// TestStageSpansMatchHistograms: every serving stage records its span
// and its stage_latency histogram in one call, so for a traced request
// — or an anti-entropy round, which is always traced — the number of
// spans of each stage equals the change in that stage's histogram count.
func TestStageSpansMatchHistograms(t *testing.T) {
	stages := []string{"queue_wait", "mem_lookup", "disk_read", "compile", "verify", "write_through", "batch_item", "sync_peer"}
	checkSpans := func(t *testing.T, before, after stageDoc, spans []wire.SpanJSON, want []string) {
		t.Helper()
		count := map[string]int64{}
		for _, s := range spans {
			count[s.Name]++
		}
		for _, st := range stages {
			if delta := after.Stages[st].Count - before.Stages[st].Count; count[st] != delta {
				t.Errorf("stage %s: %d spans, histogram count moved by %d", st, count[st], delta)
			}
		}
		for _, st := range want {
			if count[st] == 0 {
				t.Errorf("stage %s: no span recorded", st)
			}
		}
	}
	dir := t.TempDir()
	seeded := seedStore(t, dir, compileRequest(t, copyAddLoop(702)))
	_, ts := newStoreServer(t, dir, server.Config{VerifySample: 1, TraceSample: -1})
	cold := compileRequest(t, copyAddLoop(701))
	item := func(k int64) wire.CompileItem {
		r := compileRequest(t, copyAddLoop(k))
		return wire.CompileItem{Loop: r.Loop, Options: r.Options}
	}

	cases := []struct {
		name string
		path string
		body any
		// want lists the stages the request must pass through.
		want []string
	}{
		{"cold compile", "/v2/compile", cold, stages[:6]},
		{"warm compile", "/v2/compile", cold, []string{"queue_wait", "mem_lookup"}},
		{"simulate from disk", "/v2/simulate",
			&wire.SimulateRequest{Version: wire.Version, Hash: seeded, Trip: 16},
			[]string{"queue_wait", "disk_read", "compile"}},
		// Two distinct items and an exact copy: each distinct item waits
		// for its slot under its own batch_item span; the copy runs no
		// stage at all.
		{"batch", "/v2/compile-batch",
			&wire.CompileBatchRequest{Version: wire.Version, Items: []wire.CompileItem{item(703), item(704), item(703)}},
			[]string{"batch_item", "queue_wait", "compile"}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := readStages(t, ts.URL)
			id := fmt.Sprintf("stagespans%06d", i)
			resp, body := postTraced(t, ts.URL+tc.path, tc.body, id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s", resp.Status, body)
			}
			after := readStages(t, ts.URL)
			spans := fetchTrace(t, ts.URL, id).Spans
			checkSpans(t, before, after, spans, tc.want)
			if tc.path != "/v2/compile-batch" {
				return
			}
			names := map[string]string{}
			for _, s := range spans {
				names[s.ID] = s.Name
			}
			waits := 0
			for _, s := range spans {
				if s.Name != "queue_wait" {
					continue
				}
				waits++
				if p := names[s.Parent]; p != "batch_item" {
					t.Errorf("queue_wait span under %q, want batch_item", p)
				}
			}
			if waits != 2 {
				t.Errorf("%d queue_wait spans, want one per distinct item (2)", waits)
			}
		})
	}

	// One anti-entropy round against a peer that fails every exchange:
	// its sync_peer span is the stage's, and each error outcome is one
	// cluster.sync_errors.
	t.Run("sync round against a failing peer", func(t *testing.T) {
		down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		}))
		t.Cleanup(down.Close)
		peers := []cluster.Peer{{ID: "self", Addr: "http://127.0.0.1:1"}, {ID: "down", Addr: down.URL}}
		srv, ts := newStoreServer(t, t.TempDir(), server.Config{Peers: peers, Self: "self", TraceSample: -1})
		before := readStages(t, ts.URL)
		rep := srv.SyncOnce(context.Background())
		after := readStages(t, ts.URL)
		var list wire.RequestListResponse
		get(t, ts.URL+"/debug/requests", &list)
		var spans []wire.SpanJSON
		for _, sum := range list.Requests {
			if sum.Name == "anti_entropy" {
				spans = fetchTrace(t, ts.URL, sum.TraceID).Spans
			}
		}
		checkSpans(t, before, after, spans, []string{"sync_peer"})
		errs := int64(0)
		for _, s := range spans {
			if s.Name == "sync_peer" && s.Attrs["outcome"] == "error" {
				errs++
			}
		}
		if got := after.Cluster.SyncErrors - before.Cluster.SyncErrors; got != errs || errs != int64(rep.Errors) || errs != 1 {
			t.Errorf("sync_errors moved by %d; %d sync_peer error spans; report %d errors; want 1 each", got, errs, rep.Errors)
		}
	})
}

// TestDiskReadsCountedAlike: compile, simulate by hash and the trace
// endpoint read the disk store through one tier, so a warm-restart disk
// hit — and a miss — moves disk_hits and disk_misses the same way on
// each path.
func TestDiskReadsCountedAlike(t *testing.T) {
	req := compileRequest(t, copyAddLoop(711))
	missing := fmt.Sprintf("%064x", 711)
	type call func(t *testing.T, base, hash string) *http.Response
	compile := func(r *wire.CompileRequest) call {
		return func(t *testing.T, base, _ string) *http.Response {
			resp, _ := post(t, base+"/v2/compile", r)
			return resp
		}
	}
	simulate := func(t *testing.T, base, hash string) *http.Response {
		resp, _ := post(t, base+"/v2/simulate", &wire.SimulateRequest{Version: wire.Version, Hash: hash, Trip: 16})
		return resp
	}
	trace := func(t *testing.T, base, hash string) *http.Response {
		resp, err := http.Get(base + "/v2/artifacts/" + hash + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name       string
		do         call
		hit        bool
		wantStatus int
	}{
		{"compile hit", compile(req), true, http.StatusOK},
		{"simulate hit", simulate, true, http.StatusOK},
		{"trace hit", trace, true, http.StatusOK},
		{"compile miss", compile(compileRequest(t, copyAddLoop(712))), false, http.StatusOK},
		{"simulate miss", simulate, false, http.StatusNotFound},
		{"trace miss", trace, false, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			hash := seedStore(t, dir, req)
			if !tc.hit {
				hash = missing
			}
			_, ts := newStoreServer(t, dir, server.Config{})
			if resp := tc.do(t, ts.URL, hash); resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %s, want %d", resp.Status, tc.wantStatus)
			}
			m := readStages(t, ts.URL)
			wantHits, wantMisses := int64(0), int64(1)
			if tc.hit {
				wantHits, wantMisses = 1, 0
			}
			if m.DiskHits != wantHits || m.DiskMisses != wantMisses {
				t.Errorf("disk_hits/disk_misses = %d/%d, want %d/%d", m.DiskHits, m.DiskMisses, wantHits, wantMisses)
			}
			if got := m.Stages["disk_read"].Count; got != 1 {
				t.Errorf("disk_read stage count = %d, want 1", got)
			}
		})
	}
}

// TestArtifactSizeIsFileSize: an artifact weighs what its store entry
// occupies on disk, whether it was just compiled and written through or
// read back by a restarted process, and that is what store.EncodedSize
// computes for the fresh entry.
func TestArtifactSizeIsFileSize(t *testing.T) {
	dir := t.TempDir()
	req := compileRequest(t, copyAddLoop(703))
	sizeOf := func(srv *server.Server, base string) (*server.Artifact, int64) {
		t.Helper()
		resp, body := post(t, base+"/v2/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: %s: %s", resp.Status, body)
		}
		var cr wire.CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		art, ok := srv.Cache().Peek(cr.Hash)
		if !ok {
			t.Fatal("compiled artifact not in the memory cache")
		}
		fi, err := os.Stat(filepath.Join(dir, cr.Hash[:2], cr.Hash+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return art, fi.Size()
	}
	srv, ts := newStoreServer(t, dir, server.Config{})
	art, file := sizeOf(srv, ts.URL)
	if art.Size != file || store.EncodedSize(art.Entry) != file {
		t.Fatalf("compiled artifact weighs %d, EncodedSize %d; file is %d bytes", art.Size, store.EncodedSize(art.Entry), file)
	}
	srv2, ts2 := newStoreServer(t, dir, server.Config{})
	art2, file2 := sizeOf(srv2, ts2.URL)
	if art2.Compiled != nil {
		t.Fatal("restarted server recompiled instead of reading the disk entry")
	}
	if art2.Size != file2 {
		t.Fatalf("disk-read artifact weighs %d; file is %d bytes", art2.Size, file2)
	}
}
