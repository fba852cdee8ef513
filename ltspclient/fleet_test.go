package ltspclient

// Fleet-aware routing: the client builds the same ring as the servers,
// sends each request to its hash's primary owner, rotates to the next
// replica on retry, and shards batches by owner.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
)

// fleetNode records which compile hashes each fake peer received.
type fleetNode struct {
	ts *httptest.Server

	mu     sync.Mutex
	hashes []string
	fail   bool
}

func (n *fleetNode) seen() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.hashes...)
}

func (n *fleetNode) setFail(v bool) {
	n.mu.Lock()
	n.fail = v
	n.mu.Unlock()
}

// newFleet builds n recording peers. Single compiles answer with the
// request's true hash; batches answer every item.
func newFleet(t *testing.T, n int) ([]*fleetNode, []cluster.Peer) {
	t.Helper()
	nodes := make([]*fleetNode, n)
	peers := make([]cluster.Peer, n)
	for i := range nodes {
		node := &fleetNode{}
		node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.mu.Lock()
			failing := node.fail
			node.mu.Unlock()
			if failing {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(wire.NewError(wire.CodeOverloaded, "down"))
				return
			}
			switch r.URL.Path {
			case "/v2/compile":
				var req wire.CompileRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Errorf("decode: %v", err)
				}
				hash, err := req.Hash()
				if err != nil {
					t.Errorf("hash: %v", err)
				}
				node.mu.Lock()
				node.hashes = append(node.hashes, hash)
				node.mu.Unlock()
				_ = json.NewEncoder(w).Encode(&wire.CompileResponse{Hash: hash, Pipelined: true})
			case "/v2/compile-batch":
				var req wire.CompileBatchRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Errorf("decode batch: %v", err)
				}
				out := wire.CompileBatchResponse{Items: make([]wire.BatchItemResult, len(req.Items))}
				for i := range req.Items {
					hash, err := req.Item(i).Hash()
					if err != nil {
						t.Errorf("item hash: %v", err)
					}
					node.mu.Lock()
					node.hashes = append(node.hashes, hash)
					node.mu.Unlock()
					out.Items[i] = wire.BatchItemResult{
						CompileResponse: &wire.CompileResponse{Hash: hash, Pipelined: true},
					}
				}
				_ = json.NewEncoder(w).Encode(&out)
			default:
				http.NotFound(w, r)
			}
		}))
		t.Cleanup(node.ts.Close)
		nodes[i] = node
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i), Addr: node.ts.URL}
	}
	return nodes, peers
}

func newFleetClient(t *testing.T, peers []cluster.Peer, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Peers:       peers,
		Replication: 2,
		Seed:        1,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fleetRequest builds a compile request with a distinguishing constant.
func fleetRequest(t *testing.T, k int64) (*wire.CompileRequest, string) {
	t.Helper()
	l := ir.NewLoop("copyadd")
	v, bs, r, kr := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(ir.Ld(v, bs, 4, 4))
	l.Append(ir.Add(r, v, kr))
	l.Init(bs, 0x100000)
	l.Init(kr, k)
	l.LiveOut = []ir.Reg{bs}
	data, err := ir.EncodeLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.CompileRequest{Version: wire.Version, Loop: data}
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return req, hash
}

// TestFleetRoutesToPrimaryOwner: each compile lands on the ring's
// primary owner for its hash, nowhere else.
func TestFleetRoutesToPrimaryOwner(t *testing.T) {
	nodes, peers := newFleet(t, 3)
	client := newFleetClient(t, peers, nil)
	ring := cluster.New(peers, 0)

	for k := int64(0); k < 8; k++ {
		req, hash := fleetRequest(t, k)
		resp, err := client.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Hash != hash {
			t.Fatalf("response hash %s, want %s", resp.Hash, hash)
		}
		owner, ok := ring.Owner(hash)
		if !ok {
			t.Fatal("empty ring")
		}
		for i, n := range nodes {
			saw := false
			for _, h := range n.seen() {
				if h == hash {
					saw = true
				}
			}
			if want := peers[i].ID == owner.ID; saw != want {
				t.Fatalf("hash %s: node %s saw=%v, want %v (owner %s)",
					hash[:12], peers[i].ID, saw, want, owner.ID)
			}
		}
	}
}

// TestFleetFailsOverToReplica: a down primary pushes the retry to the
// next replica in the set; the request still succeeds.
func TestFleetFailsOverToReplica(t *testing.T) {
	nodes, peers := newFleet(t, 3)
	client := newFleetClient(t, peers, nil)
	ring := cluster.New(peers, 0)

	req, hash := fleetRequest(t, 100)
	owners := ring.Owners(hash, 2)
	var primary, secondary *fleetNode
	for i := range peers {
		switch peers[i].ID {
		case owners[0].ID:
			primary = nodes[i]
		case owners[1].ID:
			secondary = nodes[i]
		}
	}
	primary.setFail(true)

	resp, err := client.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hash != hash {
		t.Fatalf("response hash %s, want %s", resp.Hash, hash)
	}
	if len(secondary.seen()) == 0 {
		t.Fatal("secondary replica never saw the failed-over request")
	}
	if st := client.Stats(); st.Retries == 0 {
		t.Fatalf("stats = %+v, want at least one retry", st)
	}
}

// TestFleetBatchShardsByOwner: a batch splits into per-owner
// sub-batches — every node sees exactly the hashes it owns — and the
// reassembled response preserves request order.
func TestFleetBatchShardsByOwner(t *testing.T) {
	nodes, peers := newFleet(t, 3)
	client := newFleetClient(t, peers, nil)
	ring := cluster.New(peers, 0)

	const total = 24
	items := make([]wire.CompileItem, total)
	hashes := make([]string, total)
	for k := range items {
		req, hash := fleetRequest(t, int64(200+k))
		items[k] = wire.CompileItem{Loop: req.Loop, Options: req.Options}
		hashes[k] = hash
	}

	resp, err := client.CompileBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != total {
		t.Fatalf("%d results, want %d", len(resp.Items), total)
	}
	for k, item := range resp.Items {
		if item.Error != "" || item.CompileResponse == nil || item.Hash != hashes[k] {
			t.Fatalf("item %d: %+v, want clean compile of %s (order must be preserved)",
				k, item, hashes[k])
		}
	}
	for i, n := range nodes {
		for _, h := range n.seen() {
			if owner, _ := ring.Owner(h); owner.ID != peers[i].ID {
				t.Fatalf("node %s received %s, owned by %s", peers[i].ID, h[:12], owner.ID)
			}
		}
	}
}
