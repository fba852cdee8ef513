package server_test

// Cluster chaos: the persistence and peer-fill layers under seeded
// faults. A node dies and restarts mid-batch while a fleet-aware client
// keeps compiling; hung peers must never leak the hedged lookup
// goroutines; a restarted node must warm-start from its disk store.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/faultinject"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
	"ltsp/ltspclient"
)

// TestChaosPeerFillHungOwnersNoLeaks: every replica that owns the hash
// hangs without answering. The hedged lookup must fan out, hit the
// PeerTimeout budget, fall back to a local compile — and every fetch
// goroutine must exit once the hung peers finally see the cancellation.
func TestChaosPeerFillHungOwnersNoLeaks(t *testing.T) {
	checkGoroutineLeaks(t)

	// Two hung "peers": they accept the connection and then sit on it
	// until the client gives up.
	var hung atomic.Int64
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hung.Add(1)
		<-r.Context().Done()
	})
	tsA := httptest.NewServer(hang)
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(hang)
	t.Cleanup(tsB.Close)

	realH := &swapHandler{}
	tsC := httptest.NewServer(realH)
	t.Cleanup(tsC.Close)

	peers := []cluster.Peer{
		{ID: "a", Addr: tsA.URL},
		{ID: "b", Addr: tsB.URL},
		{ID: "c", Addr: tsC.URL},
	}
	srv := server.New(server.Config{
		Peers:          peers,
		Self:           "c",
		Replication:    2,
		PeerTimeout:    200 * time.Millisecond,
		PeerHedgeDelay: 20 * time.Millisecond,
	})
	realH.Set(srv)

	// Find hashes whose whole replica set is the two hung nodes, so the
	// fill has no healthy replica to fall back to.
	ring := cluster.New(peers, 0)
	var reqs []*wire.CompileRequest
	for k := int64(0); len(reqs) < 3 && k < 2048; k++ {
		req := compileRequest(t, copyAddLoop(5000+k))
		hash, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if !ring.IsOwner("c", hash, 2) {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < 3 {
		t.Fatal("no hashes owned exclusively by the hung peers")
	}

	for i, req := range reqs {
		resp, body := post(t, tsC.URL+"/v2/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d with hung owners: %s: %s", i, resp.Status, body)
		}
	}

	var m clusterMetricsDoc
	get(t, tsC.URL+"/metrics", &m)
	if m.compiles() != int64(len(reqs)) {
		t.Fatalf("executed %d compilations, want %d local fallbacks", m.compiles(), len(reqs))
	}
	if m.Cluster == nil || m.Cluster.PeerMisses < int64(len(reqs)) {
		t.Fatalf("cluster metrics = %+v, want >= %d peer misses", m.Cluster, len(reqs))
	}
	if hung.Load() < int64(2*len(reqs)) {
		t.Fatalf("hung peers saw %d fetches, want %d (hedge must fan out to both replicas)",
			hung.Load(), 2*len(reqs))
	}
	// checkGoroutineLeaks (cleanup) now proves every hedged fetch exited.
}

// chaosNode is one restartable store-backed cluster member.
type chaosNode struct {
	t       *testing.T
	dir     string
	peers   []cluster.Peer
	self    string
	seed    int64
	handler *swapHandler
	ts      *httptest.Server
	srv     *server.Server
	store   *store.Store
}

func (n *chaosNode) start() {
	st, err := store.Open(n.dir, store.Options{})
	if err != nil {
		n.t.Fatal(err)
	}
	n.store = st
	n.srv = server.New(server.Config{
		PoolSize:       4,
		Store:          st,
		Peers:          n.peers,
		Self:           n.self,
		Replication:    2,
		PeerTimeout:    time.Second,
		PeerHedgeDelay: 10 * time.Millisecond,
	})
	n.handler.Set(faultinject.Wrap(n.srv, faultinject.Config{
		Seed:        n.seed,
		LatencyProb: 0.2, LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond,
		DropProb: 0.05,
	}))
}

// kill makes the node's address refuse work (503) and releases its
// store, like a crashed process whose port is still routed.
func (n *chaosNode) kill() {
	n.handler.Set(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	n.store.Close()
	n.srv, n.store = nil, nil
}

// TestChaosPeerKillRestartMidBatch is the cluster acceptance scenario:
// a fleet-aware client compiles a chunked workload across three
// store-backed nodes while one node is killed at a seeded chunk
// boundary and restarted two chunks later. Every item must still
// compile (failover to the surviving replicas), and the restarted node
// must come back warm: artifacts it compiled in its first life are
// served from disk, not recompiled.
func TestChaosPeerKillRestartMidBatch(t *testing.T) {
	checkGoroutineLeaks(t)
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))

	const nodes = 3
	handlers := make([]*swapHandler, nodes)
	peers := make([]cluster.Peer, nodes)
	nodeList := make([]*chaosNode, nodes)
	for i := 0; i < nodes; i++ {
		handlers[i] = &swapHandler{}
		ts := httptest.NewServer(handlers[i])
		t.Cleanup(ts.Close)
		peers[i] = cluster.Peer{ID: ts.URL, Addr: ts.URL}
		nodeList[i] = &chaosNode{
			t: t, dir: t.TempDir(), self: ts.URL,
			seed: seed + int64(i), handler: handlers[i], ts: ts,
		}
	}
	for _, n := range nodeList {
		n.peers = peers
		n.start()
		t.Cleanup(func() {
			if n.store != nil {
				n.store.Close()
			}
		})
	}

	client, err := ltspclient.New(ltspclient.Config{
		Peers:       peers,
		Replication: 2,
		Seed:        seed,
		MaxRetries:  6,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		BackoffBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total, chunk = 60, 10
	items := make([]wire.CompileItem, total)
	hashes := make([]string, total)
	for i := range items {
		req := compileRequest(t, copyAddLoop(int64(3000+i)))
		items[i] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}

	victim := nodeList[rng.Intn(nodes)]
	killAt := (2 + rng.Intn(2)) * chunk // after chunk 2 or 3 of 6
	restartAt := killAt + 2*chunk
	t.Logf("seed %d: killing %s after item %d, restarting after item %d",
		seed, victim.self, killAt, restartAt)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for base := 0; base < total; base += chunk {
		if base == killAt {
			victim.kill()
		}
		if base == restartAt {
			victim.start()
		}
		resp, err := client.CompileBatch(ctx, items[base:base+chunk])
		if err != nil {
			t.Fatalf("batch [%d,%d): %v (client stats %+v)", base, base+chunk, err, client.Stats())
		}
		for j, item := range resp.Items {
			if item.Error != "" || item.CompileResponse == nil || item.Hash != hashes[base+j] {
				t.Fatalf("item %d: %+v, want clean compile of %s", base+j, item, hashes[base+j])
			}
		}
	}

	// Warm-start proof: pick a pre-kill artifact the victim owns and ask
	// the restarted node for it. Its second-life memory started empty, so
	// a cached answer can only have come from its disk store.
	ring := cluster.New(peers, 0)
	victimOwned := -1
	for i := 0; i < killAt; i++ {
		if owner, ok := ring.Owner(hashes[i]); ok && owner.ID == victim.self {
			victimOwned = i
			break
		}
	}
	if victimOwned < 0 {
		t.Fatalf("no pre-kill item owned by the victim (seed %d)", seed)
	}
	req := &wire.CompileRequest{Version: wire.Version, Loop: items[victimOwned].Loop, Options: items[victimOwned].Options}
	var cr wire.CompileResponse
	if err := postFaulty(victim.self+"/v2/compile", req, &cr); err != nil {
		t.Fatalf("restarted node never answered: %v", err)
	}
	if !cr.Cached {
		t.Fatalf("restarted node recompiled %s instead of serving its disk store", hashes[victimOwned])
	}
	var m clusterMetricsDoc
	if err := postFaulty(victim.self+"/metrics", nil, &m); err != nil {
		t.Fatalf("restarted node metrics: %v", err)
	}
	if m.DiskHits == 0 {
		t.Fatal("restarted node reports zero disk hits after a warm-start serve")
	}
	if m.Disk == nil || m.Disk.Entries == 0 {
		t.Fatal("restarted node's store rebuilt empty despite first-life compiles")
	}
}

// postFaulty talks to a fault-injecting node directly: transport errors
// and non-200s (injected drops) are retried rather than fatal. A nil
// body issues a GET.
func postFaulty(url string, body, out any) error {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		var resp *http.Response
		var err error
		if body == nil {
			resp, err = http.Get(url)
		} else {
			var payload []byte
			payload, err = json.Marshal(body)
			if err != nil {
				return err
			}
			resp, err = http.Post(url, "application/json", bytes.NewReader(payload))
		}
		if err != nil {
			lastErr = err
			time.Sleep(5 * time.Millisecond)
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: %s (%v)", url, resp.Status, rerr)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		return json.Unmarshal(data, out)
	}
	return lastErr
}
