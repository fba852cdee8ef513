package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

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
	var cr server.CompileResponse
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
// the number of spans of each stage equals the change in that stage's
// histogram count.
func TestStageSpansMatchHistograms(t *testing.T) {
	stages := []string{"queue_wait", "mem_lookup", "disk_read", "compile", "verify", "write_through"}
	dir := t.TempDir()
	seeded := seedStore(t, dir, compileRequest(t, copyAddLoop(702)))
	_, ts := newStoreServer(t, dir, server.Config{VerifySample: 1, TraceSample: -1})
	cold := compileRequest(t, copyAddLoop(701))

	cases := []struct {
		name string
		path string
		body any
		// want lists the stages the request must pass through.
		want []string
	}{
		{"cold compile", "/v2/compile", cold, stages},
		{"warm compile", "/v2/compile", cold, []string{"queue_wait", "mem_lookup"}},
		{"simulate from disk", "/v2/simulate",
			&wire.SimulateRequest{Version: wire.Version, Hash: seeded, Trip: 16},
			[]string{"queue_wait", "disk_read", "compile"}},
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
			spans := map[string]int64{}
			for _, s := range fetchTrace(t, ts.URL, id).Spans {
				spans[s.Name]++
			}
			for _, st := range stages {
				delta := after.Stages[st].Count - before.Stages[st].Count
				if spans[st] != delta {
					t.Errorf("stage %s: %d spans, histogram count moved by %d", st, spans[st], delta)
				}
			}
			for _, st := range tc.want {
				if spans[st] == 0 {
					t.Errorf("stage %s: no span recorded", st)
				}
			}
		})
	}
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
