package server_test

// Persistence and cluster-mode tests: the disk store layered under the
// in-memory cache (warm restarts, trace/simulate fall-through, byte
// accounting) and consistent-hash peer cache-fill between in-process
// nodes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// clusterMetricsDoc picks the /metrics fields these tests assert on.
type clusterMetricsDoc struct {
	CacheEntries     int   `json:"cache_entries"`
	CacheBytes       int64 `json:"cache_bytes"`
	CacheMisses      int64 `json:"cache_misses"`
	DiskHits         int64 `json:"disk_hits"`
	ArtifactRequests int64 `json:"artifact_requests"`
	Materializations int64 `json:"materializations"`
	CompileOutcomes  struct {
		Pipelined      int64 `json:"pipelined"`
		ReducedLatency int64 `json:"fallback_reduced_latency"`
		RaisedII       int64 `json:"fallback_raised_ii"`
		Sequential     int64 `json:"sequential"`
	} `json:"compile_outcomes"`
	Disk *struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
		Writes  int64 `json:"writes"`
	} `json:"disk,omitempty"`
	Cluster *struct {
		Self       string `json:"self"`
		Peers      int    `json:"peers"`
		PeerHits   int64  `json:"peer_hits"`
		PeerMisses int64  `json:"peer_misses"`
		PeerErrors int64  `json:"peer_errors"`
	} `json:"cluster,omitempty"`
}

func (m *clusterMetricsDoc) compiles() int64 {
	o := m.CompileOutcomes
	return o.Pipelined + o.ReducedLatency + o.RaisedII + o.Sequential
}

// newStoreServer wires a server over a persistent store in dir. Cleanups
// close the HTTP listener before the store (LIFO).
func newStoreServer(t testing.TB, dir string, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	cfg.Store = st
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestWarmRestartFromDisk is the headline persistence property: a
// process restart (new server, new store handle, same directory) serves
// previously compiled artifacts — response, trace and simulation — from
// disk without recompiling anything.
func TestWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := compileRequest(t, copyAddLoop(41))

	// First life: compile and simulate, remember the ground truth.
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{Store: st1})
	ts1 := httptest.NewServer(srv1)
	resp, body := post(t, ts1.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var first wire.CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first compile reported cached")
	}
	var sim1 wire.SimulateResponse
	resp, body = post(t, ts1.URL+"/v2/simulate", &wire.SimulateRequest{
		Version: wire.Version, Hash: first.Hash, Trip: 64,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &sim1); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	st1.Close()

	// Second life, same directory.
	_, ts2 := newStoreServer(t, dir, server.Config{})

	resp, body = post(t, ts2.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: %s: %s", resp.Status, body)
	}
	var warm wire.CompileResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("warm restart compile not served as cached")
	}
	if warm.Hash != first.Hash || warm.II != first.II || warm.Listing != first.Listing {
		t.Fatalf("disk-served response differs from the original:\n%+v\nvs\n%+v", warm, first)
	}

	// The trace survived too.
	var tr traceDoc
	get(t, ts2.URL+"/v2/artifacts/"+first.Hash+"/trace", &tr)
	if tr.Hash != first.Hash || tr.Outcome != first.Outcome || len(tr.Events) == 0 {
		t.Fatalf("disk-served trace = hash %q outcome %q %d events", tr.Hash, tr.Outcome, len(tr.Events))
	}

	// Simulating by hash materializes the disk-read artifact and reproduces
	// the original cycle count exactly (compilation is deterministic).
	var sim2 wire.SimulateResponse
	resp, body = post(t, ts2.URL+"/v2/simulate", &wire.SimulateRequest{
		Version: wire.Version, Hash: first.Hash, Trip: 64,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm simulate: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &sim2); err != nil {
		t.Fatal(err)
	}
	if sim2.Cycles != sim1.Cycles || sim2.KernelIters != sim1.KernelIters {
		t.Fatalf("materialized simulation diverged: %d cycles vs %d", sim2.Cycles, sim1.Cycles)
	}

	// No compilation ran to serve any of the above: the outcome counters
	// (bumped once per executed compilation) stayed at zero, while the
	// disk layer counted the fills. The one materialization recompiled
	// for simulate without counting as a compilation decision.
	var m clusterMetricsDoc
	get(t, ts2.URL+"/metrics", &m)
	if m.compiles() != 0 {
		t.Fatalf("warm restart executed %d compilations, want 0", m.compiles())
	}
	if m.DiskHits == 0 {
		t.Fatal("warm restart recorded no disk hits")
	}
	if m.Materializations != 1 {
		t.Fatalf("materializations = %d, want 1", m.Materializations)
	}
}

// TestInlineSimulateAfterWarmRestart: an inline simulate of a loop whose
// artifact a restarted server reads from disk materializes the
// program like simulate by hash does, instead of running a nil program.
func TestInlineSimulateAfterWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := compileRequest(t, copyAddLoop(43))
	inline := &wire.SimulateRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options, Trip: 64}

	_, ts1 := newStoreServer(t, dir, server.Config{})
	resp, body := post(t, ts1.URL+"/v2/simulate", inline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first-life simulate: %s: %s", resp.Status, body)
	}
	var want wire.SimulateResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newStoreServer(t, dir, server.Config{})
	resp, body = post(t, ts2.URL+"/v2/simulate", inline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm inline simulate: %s: %s", resp.Status, body)
	}
	var got wire.SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Hash != want.Hash || got.Cycles != want.Cycles || got.KernelIters != want.KernelIters {
		t.Fatalf("warm inline simulate = cached %v hash %s %d cycles, want cached hash %s %d cycles",
			got.Cached, got.Hash, got.Cycles, want.Hash, want.Cycles)
	}
	if n := srv2.Metrics().PanicsRecovered.Load(); n != 0 {
		t.Fatalf("panics_recovered = %d, want 0", n)
	}
}

// TestCacheStatsMatchDisk: the in-memory cache and the disk store weigh
// entries with the same accounting (the entry's bytes on disk), so after N
// compiles /metrics reports the same entries and bytes for both layers.
func TestCacheStatsMatchDisk(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), server.Config{})
	const n = 3
	for k := int64(0); k < n; k++ {
		resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(100+k)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: %s: %s", k, resp.Status, body)
		}
	}
	var m clusterMetricsDoc
	get(t, ts.URL+"/metrics", &m)
	if m.Disk == nil {
		t.Fatal("/metrics has no disk section despite a configured store")
	}
	if m.CacheEntries != n || m.Disk.Entries != n {
		t.Fatalf("entries: memory %d, disk %d, want %d in both", m.CacheEntries, m.Disk.Entries, n)
	}
	if m.CacheBytes == 0 || m.CacheBytes != m.Disk.Bytes {
		t.Fatalf("bytes: memory %d, disk %d — the layers disagree", m.CacheBytes, m.Disk.Bytes)
	}
}

// TestArtifactEndpoint: GET /v2/artifacts/{hash} serves the complete
// store entry, which passes the store's decode, and unknown hashes fail
// with the structured 404 envelope.
func TestArtifactEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(77)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}

	ar, err := store.DecodeEntry(cr.Hash, getBody(t, ts.URL+"/v2/artifacts/"+cr.Hash, ""))
	if err != nil {
		t.Fatalf("artifact failed the store's decode: %v", err)
	}
	var inner wire.CompileResponse
	if err := json.Unmarshal(ar.Response, &inner); err != nil {
		t.Fatalf("artifact response section undecodable: %v", err)
	}
	if inner.Hash != cr.Hash || inner.Listing != cr.Listing {
		t.Fatal("artifact response section does not match the compile response")
	}
	if len(ar.Trace) == 0 {
		t.Fatal("artifact has no trace section")
	}

	hresp, err := http.Get(ts.URL + "/v2/artifacts/" + fmt.Sprintf("%064x", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact: %s, want 404", hresp.Status)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(hresp.Body).Decode(&env); err != nil || env.Error.Code != wire.CodeNotFound {
		t.Fatalf("unknown artifact envelope = %+v (%v)", env.Error, err)
	}
}

// TestTraceNotFoundEnvelope: the trace endpoint's miss — memory AND
// disk — is the structured 404 envelope.
func TestTraceNotFoundEnvelope(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), server.Config{})
	resp, err := http.Get(ts.URL + "/v2/artifacts/" + fmt.Sprintf("%064x", 7) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace miss: %s, want 404", resp.Status)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != wire.CodeNotFound {
		t.Fatalf("trace miss envelope = %+v (%v)", env.Error, err)
	}
}

// swapHandler lets a fixed httptest URL change (or lose) its backing
// server mid-test: the peer-address indirection cluster tests need,
// since ring membership must be known before server.New.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterNodes builds n in-process cluster nodes behind stable URLs.
// mutate (optional) adjusts each node's config before construction.
func clusterNodes(t testing.TB, n int, mutate func(i int, cfg *server.Config)) ([]*server.Server, []*httptest.Server, []cluster.Peer) {
	t.Helper()
	handlers := make([]*swapHandler, n)
	tss := make([]*httptest.Server, n)
	peers := make([]cluster.Peer, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		tss[i] = httptest.NewServer(handlers[i])
		t.Cleanup(tss[i].Close)
		peers[i] = cluster.Peer{ID: tss[i].URL, Addr: tss[i].URL}
	}
	srvs := make([]*server.Server, n)
	for i := range srvs {
		cfg := server.Config{
			Peers:          peers,
			Self:           peers[i].ID,
			Replication:    1,
			PeerTimeout:    2 * time.Second,
			PeerHedgeDelay: 10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = server.New(cfg)
		handlers[i].Set(srvs[i])
	}
	return srvs, tss, peers
}

// loopOwnedBy finds a copyAdd variant whose artifact hash is owned by
// the given peer (replication 1), so tests can steer work at a node.
func loopOwnedBy(t testing.TB, ring *cluster.Ring, owner cluster.Peer) (*wire.CompileRequest, string) {
	t.Helper()
	for k := int64(0); k < 512; k++ {
		req := compileRequest(t, copyAddLoop(9000+k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := ring.Owner(hash); ok && p.ID == owner.ID {
			return req, hash
		}
	}
	t.Fatalf("no loop variant hashed onto peer %s", owner.ID)
	return nil, ""
}

// TestPeerCacheFill: a node that does not own a hash asks the owner for
// the finished artifact instead of compiling — the response is served
// cached, the non-owner executes zero compilations, and the owner sees
// the artifact request.
func TestPeerCacheFill(t *testing.T) {
	checkGoroutineLeaks(t)
	_, tss, peers := clusterNodes(t, 2, nil)
	ring := cluster.New(peers, 0)
	req, _ := loopOwnedBy(t, ring, peers[0])

	// Compile on the owner: a normal local compilation.
	resp, body := post(t, tss[0].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner compile: %s: %s", resp.Status, body)
	}

	// The same request on the non-owner fills from the owner.
	resp, body = post(t, tss[1].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner compile: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached {
		t.Fatal("peer-filled compile not reported as cached")
	}

	var m clusterMetricsDoc
	get(t, tss[1].URL+"/metrics", &m)
	if m.Cluster == nil {
		t.Fatal("non-owner /metrics has no cluster section")
	}
	if m.Cluster.PeerHits != 1 {
		t.Fatalf("non-owner peer_hits = %d, want 1", m.Cluster.PeerHits)
	}
	if m.compiles() != 0 {
		t.Fatalf("non-owner executed %d compilations, want 0 (peer fill)", m.compiles())
	}
	get(t, tss[0].URL+"/metrics", &m)
	if m.ArtifactRequests == 0 {
		t.Fatal("owner served no artifact requests")
	}

	// Second request on the non-owner is a plain memory hit.
	resp, body = post(t, tss[1].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner re-compile: %s: %s", resp.Status, body)
	}
	get(t, tss[1].URL+"/metrics", &m)
	if m.Cluster.PeerHits != 1 {
		t.Fatalf("memory hit went back to the peer (peer_hits = %d)", m.Cluster.PeerHits)
	}
}

// TestPeerFillFallsBackToLocalCompile: when every owning replica is
// down, the non-owner compiles locally — availability beats placement.
func TestPeerFillFallsBackToLocalCompile(t *testing.T) {
	checkGoroutineLeaks(t)
	_, tss, peers := clusterNodes(t, 2, func(i int, cfg *server.Config) {
		cfg.PeerTimeout = 300 * time.Millisecond
	})
	ring := cluster.New(peers, 0)
	req, _ := loopOwnedBy(t, ring, peers[0])

	// Take the owner down. Closing the listener gives connection-refused,
	// the real failure mode of a dead process.
	tss[0].Close()

	resp, body := post(t, tss[1].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with owner down: %s: %s", resp.Status, body)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cached {
		t.Fatal("local fallback compile claimed to be cached")
	}
	var m clusterMetricsDoc
	get(t, tss[1].URL+"/metrics", &m)
	if m.compiles() != 1 {
		t.Fatalf("fallback executed %d compilations, want 1", m.compiles())
	}
	if m.Cluster.PeerErrors == 0 && m.Cluster.PeerMisses == 0 {
		t.Fatal("owner-down fill recorded neither a peer error nor a miss")
	}
}

// TestPeerFillWritesThrough: a peer-filled artifact lands in the
// non-owner's disk store too, so it survives that node's restart.
func TestPeerFillWritesThrough(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	stores := make([]*store.Store, 2)
	for i := range stores {
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		t.Cleanup(st.Close)
	}
	_, tss, peers := clusterNodes(t, 2, func(i int, cfg *server.Config) {
		cfg.Store = stores[i]
	})
	ring := cluster.New(peers, 0)
	req, hash := loopOwnedBy(t, ring, peers[0])

	if resp, body := post(t, tss[0].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner compile: %s: %s", resp.Status, body)
	}
	if resp, body := post(t, tss[1].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner compile: %s: %s", resp.Status, body)
	}
	if !stores[1].Contains(hash) {
		t.Fatal("peer fill was not written through to the non-owner's store")
	}
	if e, _, err := stores[1].Get(hash); err != nil {
		t.Fatalf("written-through entry unreadable: %v", err)
	} else if e.Hash != hash {
		t.Fatalf("written-through entry hash %q, want %q", e.Hash, hash)
	}
	// The fill wrote the body the owner serves, byte for byte.
	file, err := os.ReadFile(filepath.Join(dirs[1], hash[:2], hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if sent := getBody(t, tss[0].URL+"/v2/artifacts/"+hash, ""); !bytes.Equal(file, sent) {
		t.Errorf("peer-filled entry file differs from the artifact body (%d vs %d bytes)", len(file), len(sent))
	}
}

// getBody GETs url with the given Accept header (none when empty) and
// returns the 200 body.
func getBody(t testing.TB, url, accept string) []byte {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// tierBodies are the response bodies one hash serves, fetched from one
// node in one tier state.
type tierBodies struct {
	trace, artifact, compile []byte
}

// fetchTierBodies reads hash's trace, its artifact body and a cached
// compile of req from base. The compile is sent twice so the second
// body is a cache serve on every tier.
func fetchTierBodies(t *testing.T, base, hash string, req *wire.CompileRequest) tierBodies {
	t.Helper()
	var b tierBodies
	b.artifact = getBody(t, base+"/v2/artifacts/"+hash, "")
	b.trace = getBody(t, base+"/v2/artifacts/"+hash+"/trace", "")
	for range 2 {
		resp, body := post(t, base+"/v2/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: %s: %s", resp.Status, body)
		}
		b.compile = body
	}
	return b
}

// TestArtifactBodiesIdenticalAcrossTiers: an artifact is a deterministic
// compile of its content-addressed request, so every body a hash serves
// — its trace, its artifact body, a cached compile — is byte-identical
// whether the artifact was compiled on this node, read back from disk
// after a restart, materialized by a simulate, or filled from a peer. A
// disk hit serves the entry file's own bytes.
func TestArtifactBodiesIdenticalAcrossTiers(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	stores := make([]*store.Store, 2)
	for i := range stores {
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		t.Cleanup(st.Close)
	}
	_, tss, peers := clusterNodes(t, 2, func(i int, cfg *server.Config) {
		cfg.Store = stores[i]
	})
	ring := cluster.New(peers, 0)
	req, hash := loopOwnedBy(t, ring, peers[0])
	if resp, body := post(t, tss[0].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner compile: %s: %s", resp.Status, body)
	}

	tiers := []struct {
		name  string
		fetch func() tierBodies
	}{
		{"memory", func() tierBodies { return fetchTierBodies(t, tss[0].URL, hash, req) }},
		{"peer", func() tierBodies {
			if resp, body := post(t, tss[1].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("peer-filled compile: %s: %s", resp.Status, body)
			}
			var m clusterMetricsDoc
			get(t, tss[1].URL+"/metrics", &m)
			if m.Cluster.PeerHits != 1 || m.compiles() != 0 {
				t.Fatalf("second node: peer_hits = %d, compiles = %d; want a peer fill", m.Cluster.PeerHits, m.compiles())
			}
			return fetchTierBodies(t, tss[1].URL, hash, req)
		}},
		{"disk", func() tierBodies {
			_, ts := newStoreServer(t, dirs[0], server.Config{})
			b := fetchTierBodies(t, ts.URL, hash, req)
			file, err := os.ReadFile(filepath.Join(dirs[0], hash[:2], hash+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.artifact, file) {
				t.Errorf("disk: artifact body differs from the entry file (%d vs %d bytes)", len(b.artifact), len(file))
			}
			return b
		}},
		{"materialized", func() tierBodies {
			_, ts := newStoreServer(t, dirs[0], server.Config{})
			resp, body := post(t, ts.URL+"/v2/simulate", &wire.SimulateRequest{
				Version: wire.Version, Hash: hash, Trip: 64,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate: %s: %s", resp.Status, body)
			}
			var m clusterMetricsDoc
			get(t, ts.URL+"/metrics", &m)
			if m.Materializations != 1 {
				t.Fatalf("materializations = %d, want 1", m.Materializations)
			}
			return fetchTierBodies(t, ts.URL, hash, req)
		}},
	}
	var want tierBodies
	for i, tier := range tiers {
		got := tier.fetch()
		if i == 0 {
			want = got
			continue
		}
		for _, c := range []struct {
			name      string
			got, want []byte
		}{
			{"trace", got.trace, want.trace},
			{"artifact", got.artifact, want.artifact},
			{"cached compile", got.compile, want.compile},
		} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("%s: %s body differs from the compiling node's (%d vs %d bytes)",
					tier.name, c.name, len(c.got), len(c.want))
			}
		}
	}
}
