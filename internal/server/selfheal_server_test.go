package server_test

// Self-healing cluster tests: anti-entropy replication and
// reconvergence, dynamic membership swaps under in-flight hedged fills,
// and provenance-chain quarantine of tampered store entries.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/faultinject"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// selfhealMetricsDoc picks the /metrics fields the self-healing tests
// assert on.
type selfhealMetricsDoc struct {
	CompileOutcomes struct {
		Pipelined      int64 `json:"pipelined"`
		ReducedLatency int64 `json:"fallback_reduced_latency"`
		RaisedII       int64 `json:"fallback_raised_ii"`
		Sequential     int64 `json:"sequential"`
	} `json:"compile_outcomes"`
	Cluster *struct {
		Self       string `json:"self"`
		Peers      int    `json:"peers"`
		PeersAlive int    `json:"peers_alive"`
		PeersDead  int    `json:"peers_dead"`
		RingSwaps  int64  `json:"ring_swaps"`
		PeerHits   int64  `json:"peer_hits"`
		SyncRuns   int64  `json:"sync_runs"`
		SyncPulls  int64  `json:"sync_pulls"`
		SyncErrors int64  `json:"sync_errors"`
	} `json:"cluster,omitempty"`
	Provenance *struct {
		Records        int64 `json:"records"`
		Failures       int64 `json:"failures"`
		PeerMismatches int64 `json:"peer_mismatches"`
	} `json:"provenance,omitempty"`
}

func (m *selfhealMetricsDoc) compiles() int64 {
	o := m.CompileOutcomes
	return o.Pipelined + o.ReducedLatency + o.RaisedII + o.Sequential
}

// selfhealNodes builds n cluster nodes, each with its own persistent
// store and provenance log, replication n (every node owns every hash).
func selfhealNodes(t *testing.T, n int, mutate func(i int, cfg *server.Config)) ([]*server.Server, []*httptest.Server, []*store.Store) {
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
	stores := make([]*store.Store, n)
	for i := range srvs {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		stores[i] = st
		prov, err := store.OpenLog(t.TempDir(), store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { prov.Close() })
		cfg := server.Config{
			Store:          st,
			Provenance:     prov,
			Peers:          peers,
			Self:           peers[i].ID,
			Replication:    n,
			PeerTimeout:    2 * time.Second,
			PeerHedgeDelay: 10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = server.New(cfg)
		t.Cleanup(srvs[i].Close)
		handlers[i].Set(srvs[i])
	}
	return srvs, tss, stores
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// provenanceOf fetches the provenance of artifact hash from the node at
// url; ok is false while the node holds no record of it.
func provenanceOf(t *testing.T, url, hash string) (p wire.ProvenanceResponse, ok bool) {
	t.Helper()
	resp, err := http.Get(url + "/v2/provenance/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p, true
}

// TestAntiEntropyReconvergesEmptyNode: anti-entropy alone carries an
// artifact to every owner that lacks it — the empty replica of a
// fully replicated pair, and the owners of an artifact compiled on a
// node outside its replica set — without any request reaching them.
// Node 0 compiles and never syncs; every other node runs the loop. A
// round's context expires after one interval, so one interval plus one
// round bounds how long an owner goes without the artifact.
func TestAntiEntropyReconvergesEmptyNode(t *testing.T) {
	checkGoroutineLeaks(t)
	const (
		loops    = 3
		interval = 250 * time.Millisecond
		bound    = 2*interval + 100*time.Millisecond // + polling slack
	)
	for _, tc := range []struct {
		name  string
		nodes int
	}{
		{"empty replica of a pair", 2},
		{"owners of a non-owner compile, 3 nodes R=2", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvs, tss, stores := selfhealNodes(t, tc.nodes, func(i int, cfg *server.Config) {
				cfg.Replication = 2
				if i > 0 {
					cfg.AntiEntropyInterval = interval
				}
			})
			peers := make([]cluster.Peer, len(tss))
			for i, ts := range tss {
				peers[i] = cluster.Peer{ID: ts.URL, Addr: ts.URL}
			}
			ring := cluster.New(peers, 0)
			// Pick loops node 0 does not own, so that nodes 1.. are
			// exactly their owners (on a pair that is every loop).
			var hashes []string
			for k := int64(4300); len(hashes) < loops; k++ {
				if k == 4300+512 {
					t.Fatalf("found only %d loops not owned by node 0", len(hashes))
				}
				req := compileRequest(t, copyAddLoop(k))
				h, err := req.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if tc.nodes > 2 && ring.IsOwner(peers[0].ID, h, 2) {
					continue
				}
				hashes = append(hashes, h)
				if resp, body := post(t, tss[0].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
					t.Fatalf("compile %d: %s: %s", k, resp.Status, body)
				}
			}
			// A pull lands in the store before the round records it in
			// provenance and metrics, so wait for all three.
			waitFor(t, bound, "anti-entropy to bring every artifact to every owner", func() bool {
				for i := 1; i < tc.nodes; i++ {
					for _, h := range hashes {
						p, ok := provenanceOf(t, tss[i].URL, h)
						if !stores[i].Contains(h) || !ok || len(p.Records) == 0 ||
							p.Records[len(p.Records)-1].Source != store.SourceAntiEntropy {
							return false
						}
					}
					var m selfhealMetricsDoc
					get(t, tss[i].URL+"/metrics", &m)
					if m.Cluster == nil || m.Cluster.SyncPulls < loops {
						return false
					}
				}
				return true
			})
			// Each owner recorded its pull as an anti-entropy creation,
			// pinning the compiling node's checksum.
			for i := 1; i < tc.nodes; i++ {
				var m selfhealMetricsDoc
				get(t, tss[i].URL+"/metrics", &m)
				if m.Cluster == nil || m.Cluster.SyncRuns == 0 || m.Cluster.SyncPulls < loops {
					t.Fatalf("node %d sync metrics: %+v", i, m.Cluster)
				}
				for _, h := range hashes {
					var p0, pi wire.ProvenanceResponse
					get(t, tss[0].URL+"/v2/provenance/"+h, &p0)
					get(t, tss[i].URL+"/v2/provenance/"+h, &pi)
					if p0.Checksum == "" || pi.Checksum != p0.Checksum {
						t.Fatalf("node %d checksum for %s: %q, compiling node pinned %q", i, h[:12], pi.Checksum, p0.Checksum)
					}
					if !pi.Present || !pi.Consistent {
						t.Fatalf("node %d, %s: present %v consistent %v", i, h[:12], pi.Present, pi.Consistent)
					}
					if len(pi.Records) == 0 || pi.Records[len(pi.Records)-1].Source != store.SourceAntiEntropy {
						t.Fatalf("node %d records for %s = %+v", i, h[:12], pi.Records)
					}
				}
			}
			// The compiling node already holds all it owns: its own sync
			// pulls nothing.
			rep := srvs[0].SyncOnce(context.Background())
			if rep.Pulled != 0 || rep.Errors != 0 {
				t.Fatalf("compiling node's sync = %+v, want no pulls, no errors", rep)
			}
		})
	}
}

// TestProvenanceQuarantineTamperedEntry is the headline tamper test: an
// attacker rewrites a stored artifact in place, consistently — response
// section swapped, entry checksum restamped — so the store's own
// integrity check passes. The provenance chain still pins the original
// checksum, so the entry is detected, quarantined, counted, and the
// request is served by an honest recompilation, never the tampered
// bytes.
func TestProvenanceQuarantineTamperedEntry(t *testing.T) {
	storeDir, provDir := t.TempDir(), t.TempDir()
	req := compileRequest(t, copyAddLoop(4400))

	// First life: compile, remember the truth, shut down cleanly.
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prov1, err := store.OpenLog(provDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{Store: st1, Provenance: prov1})
	ts1 := httptest.NewServer(srv1)
	resp, body := post(t, ts1.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	var original wire.CompileResponse
	if err := json.Unmarshal(body, &original); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()
	if err := prov1.Close(); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Tamper: rewrite the stored response and restamp the section
	// checksum so the entry is self-consistent. Only the provenance chain
	// still knows the original.
	path := filepath.Join(storeDir, original.Hash[:2], original.Hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.DecodeEntry(original.Hash, data)
	if err != nil {
		t.Fatal(err)
	}
	forged := original
	forged.Listing = "; poisoned kernel"
	forgedJSON, err := json.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	// A decoded entry is read-only; the forgery is a new entry, which
	// Encode stamps with a fresh, self-consistent checksum.
	tampered := &store.Entry{Hash: e.Hash, Request: e.Request, Response: forgedJSON, Trace: e.Trace,
		Verify: e.Verify, CreatedUnix: e.CreatedUnix}
	if err := os.WriteFile(path, tampered.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life over the tampered store. The bare store check passes —
	// which is exactly the attack — so prove the chain catches it.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st2.Close)
	if _, _, err := st2.Get(original.Hash); err != nil {
		t.Fatalf("consistently restamped entry must pass the store's own check, got %v", err)
	}
	prov2, err := store.OpenLog(provDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov2.Close() })
	srv2 := server.New(server.Config{Store: st2, Provenance: prov2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	// The provenance endpoint detects and quarantines the entry.
	var pr wire.ProvenanceResponse
	get(t, ts2.URL+"/v2/provenance/"+original.Hash, &pr)
	if !pr.Present || pr.Consistent {
		t.Fatalf("tampered entry reported present=%v consistent=%v, want present, inconsistent", pr.Present, pr.Consistent)
	}
	if st2.Contains(original.Hash) {
		t.Fatal("tampered entry still in the store after quarantine")
	}

	// Serving the request now recompiles honestly — the poisoned listing
	// is never served.
	resp, body = post(t, ts2.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompile: %s: %s", resp.Status, body)
	}
	var healed wire.CompileResponse
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Listing != original.Listing {
		t.Fatalf("healed listing diverges from the original:\n%s\nvs\n%s", healed.Listing, original.Listing)
	}
	if healed.Listing == forged.Listing {
		t.Fatal("the poisoned listing was served")
	}

	var m selfhealMetricsDoc
	get(t, ts2.URL+"/metrics", &m)
	if m.Provenance == nil || m.Provenance.Failures != 1 {
		t.Fatalf("provenance section = %+v, want failures 1", m.Provenance)
	}
	if m.compiles() != 1 {
		t.Fatalf("healing executed %d compilations, want 1", m.compiles())
	}
	// After the honest recompilation the chain and the store agree again.
	get(t, ts2.URL+"/v2/provenance/"+original.Hash, &pr)
	if !pr.Present || !pr.Consistent {
		t.Fatalf("healed entry reported present=%v consistent=%v", pr.Present, pr.Consistent)
	}
}

// TestChaosPartitionHealAntiEntropyReconverges cuts one node of a
// three-way replicated ring off mid-batch through the seeded fault
// fabric, keeps compiling on the survivors, heals the partition, and
// asserts anti-entropy brings the isolated node back to a full replica
// whose provenance checksums agree with the others — with zero
// goroutine leaks.
func TestChaosPartitionHealAntiEntropyReconverges(t *testing.T) {
	checkGoroutineLeaks(t)
	fabric := faultinject.NewNetwork(chaosSeed(t))
	_, tss, stores := selfhealNodes(t, 3, func(i int, cfg *server.Config) {
		cfg.AntiEntropyInterval = 50 * time.Millisecond
		cfg.PeerTimeout = 500 * time.Millisecond
		fabric.Register(cfg.Self, cfg.Self)
		cfg.PeerHTTP = &http.Client{Transport: fabric.Transport(cfg.Self, nil)}
	})

	compileOn := func(node int, k int64) string {
		t.Helper()
		req := compileRequest(t, copyAddLoop(k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := post(t, tss[node].URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d on node %d: %s: %s", k, node, resp.Status, body)
		}
		return hash
	}
	allPresent := func(st *store.Store, hashes []string) bool {
		for _, h := range hashes {
			if !st.Contains(h) {
				return false
			}
		}
		return true
	}
	// A node stores an artifact before it records its provenance; the
	// checks below need both.
	allRecorded := func(node int, hashes []string) bool {
		for _, h := range hashes {
			if _, ok := provenanceOf(t, tss[node].URL, h); !ok {
				return false
			}
		}
		return allPresent(stores[node], hashes)
	}

	// First half of the batch lands while the ring is whole.
	var hashes []string
	hashes = append(hashes, compileOn(0, 4500), compileOn(1, 4501))

	// Partition node 2 from both survivors, mid-batch.
	fabric.Partition(tss[2].URL, tss[0].URL)
	fabric.Partition(tss[2].URL, tss[1].URL)
	hashes = append(hashes, compileOn(0, 4502), compileOn(1, 4503))

	// The survivors converge on the full batch; the isolated node cannot.
	waitFor(t, 10*time.Second, "survivors to converge", func() bool {
		return allRecorded(0, hashes) && allRecorded(1, hashes)
	})
	waitFor(t, 10*time.Second, "the isolated node to record sync errors", func() bool {
		var m selfhealMetricsDoc
		get(t, tss[2].URL+"/metrics", &m)
		return m.Cluster != nil && m.Cluster.SyncErrors > 0
	})
	if allPresent(stores[2], hashes[2:]) {
		t.Fatal("the partitioned node somehow received the mid-partition batch")
	}

	// Heal. Anti-entropy repopulates the isolated node.
	fabric.HealAll()
	waitFor(t, 10*time.Second, "anti-entropy to reconverge the healed node", func() bool {
		return allRecorded(2, hashes)
	})

	// Every node pins every artifact under the same provenance checksum.
	for _, h := range hashes {
		var want string
		for i := range tss {
			var pr wire.ProvenanceResponse
			get(t, tss[i].URL+"/v2/provenance/"+h, &pr)
			if pr.Checksum == "" || !pr.Present || !pr.Consistent {
				t.Fatalf("node %d, hash %s: checksum %q present %v consistent %v",
					i, h[:12], pr.Checksum, pr.Present, pr.Consistent)
			}
			if i == 0 {
				want = pr.Checksum
			} else if pr.Checksum != want {
				t.Fatalf("node %d disagrees on %s: %q vs %q", i, h[:12], pr.Checksum, want)
			}
		}
	}
}

// srcFunc adapts a function to cluster.Source.
type srcFunc func() ([]cluster.Peer, error)

func (f srcFunc) Resolve() ([]cluster.Peer, error) { return f() }

// loopsOwnedBy finds n distinct copyAdd variants whose artifact hashes
// the ring places on the given peer.
func loopsOwnedBy(t testing.TB, ring *cluster.Ring, owner cluster.Peer, n int) []*wire.CompileRequest {
	t.Helper()
	var reqs []*wire.CompileRequest
	for k := int64(0); k < 2048 && len(reqs) < n; k++ {
		req := compileRequest(t, copyAddLoop(9000+k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := ring.Owner(hash); ok && p.ID == owner.ID {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < n {
		t.Fatalf("found only %d of %d loop variants hashed onto peer %s", len(reqs), n, owner.ID)
	}
	return reqs
}

// TestMembershipSwapMidHedgedFill: removing a peer from dynamic
// membership while a hedged fill against it is in flight neither drops
// the in-flight leg's result nor routes any later fill to the removed
// peer.
func TestMembershipSwapMidHedgedFill(t *testing.T) {
	checkGoroutineLeaks(t)

	// Peer B: a plain node that owns and has compiled the artifacts,
	// behind a middleware that delays artifact serves and counts them.
	srvB := server.New(server.Config{})
	t.Cleanup(srvB.Close)
	var artifactGets atomic.Int64
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/v2/artifacts/") && r.URL.Path[:len("/v2/artifacts/")] == "/v2/artifacts/" {
			artifactGets.Add(1)
			time.Sleep(250 * time.Millisecond)
		}
		srvB.ServeHTTP(w, r)
	}))
	t.Cleanup(tsB.Close)

	handlerA := &swapHandler{}
	tsA := httptest.NewServer(handlerA)
	t.Cleanup(tsA.Close)

	peerA := cluster.Peer{ID: tsA.URL, Addr: tsA.URL}
	peerB := cluster.Peer{ID: tsB.URL, Addr: tsB.URL}
	var members atomic.Value
	members.Store([]cluster.Peer{peerA, peerB})
	srvA := server.New(server.Config{
		Resolver:        srcFunc(func() ([]cluster.Peer, error) { return members.Load().([]cluster.Peer), nil }),
		ResolveInterval: 15 * time.Millisecond,
		Self:            peerA.ID,
		Replication:     1,
		PeerTimeout:     2 * time.Second,
		PeerHedgeDelay:  10 * time.Millisecond,
	})
	t.Cleanup(srvA.Close)
	handlerA.Set(srvA)

	// Two distinct loops owned by B under the two-peer ring, compiled
	// there.
	ring := cluster.New([]cluster.Peer{peerA, peerB}, 0)
	reqs := loopsOwnedBy(t, ring, peerB, 2)
	for i, req := range reqs {
		if resp, body := post(t, tsB.URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d on B: %s: %s", i, resp.Status, body)
		}
	}

	// Fire the fill on A; while B's delayed artifact serve is in flight,
	// remove B from membership and wait for the ring swap.
	type out struct {
		status int
		cached bool
		err    error
	}
	done := make(chan out, 1)
	go func() {
		payload, err := json.Marshal(reqs[0])
		if err != nil {
			done <- out{err: err}
			return
		}
		resp, err := http.Post(tsA.URL+"/v2/compile", "application/json", bytes.NewReader(payload))
		if err != nil {
			done <- out{err: err}
			return
		}
		defer resp.Body.Close()
		var cr wire.CompileResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		done <- out{status: resp.StatusCode, cached: cr.Cached, err: err}
	}()
	waitFor(t, 2*time.Second, "the hedged leg to reach B", func() bool {
		return artifactGets.Load() >= 1
	})
	members.Store([]cluster.Peer{peerA})
	waitFor(t, 2*time.Second, "the ring swap", func() bool {
		var m selfhealMetricsDoc
		get(t, tsA.URL+"/metrics", &m)
		return m.Cluster != nil && m.Cluster.Peers == 1 && m.Cluster.RingSwaps >= 1
	})
	got := <-done
	if got.err != nil {
		t.Fatalf("in-flight fill: %v", got.err)
	}
	if got.status != http.StatusOK || !got.cached {
		t.Fatalf("in-flight fill after swap: status %d cached %v, want 200 cached (the leg's result must not be dropped)", got.status, got.cached)
	}

	// New fills never route to the removed peer: the second loop that the
	// old ring placed on B now belongs to A alone and compiles locally.
	gets := artifactGets.Load()
	if resp, body := post(t, tsA.URL+"/v2/compile", reqs[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap compile: %s: %s", resp.Status, body)
	}
	if artifactGets.Load() != gets {
		t.Fatal("a fill after the swap still routed to the removed peer")
	}
	var m selfhealMetricsDoc
	get(t, tsA.URL+"/metrics", &m)
	if m.Cluster.PeerHits != 1 {
		t.Fatalf("peer_hits = %d, want exactly the in-flight leg's hit", m.Cluster.PeerHits)
	}
}
