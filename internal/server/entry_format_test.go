package server_test

// The store's entry encoding as the cluster sees it: what a receiver
// refuses from a peer, and how a store written in the version-1 JSON
// format heals.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// parentFormat is e as the version-1 store wrote it: one JSON document.
func parentFormat(t testing.TB, e *store.Entry) []byte {
	t.Helper()
	type verify struct {
		Sampled bool `json:"sampled,omitempty"`
		Passed  bool `json:"passed,omitempty"`
	}
	data, err := json.Marshal(struct {
		Version     int             `json:"v"`
		Hash        string          `json:"hash"`
		Request     json.RawMessage `json:"request"`
		Response    json.RawMessage `json:"response"`
		Trace       json.RawMessage `json:"trace,omitempty"`
		Verify      verify          `json:"verify"`
		CreatedUnix int64           `json:"createdUnix"`
		Checksum    string          `json:"checksum"`
	}{1, e.Hash, e.Request, e.Response, e.Trace, verify(e.Verify), e.CreatedUnix, e.Checksum})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPeerFillRejectsBadEntries: the receive path holds a peer's entry
// to every check a disk read makes plus valid JSON sections. A rejected
// entry counts as a peer error, is not persisted, and the node compiles
// locally; the honest entry from the same fake owner fills the cache.
func TestPeerFillRejectsBadEntries(t *testing.T) {
	var body atomic.Pointer[[]byte]
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", store.ContentType)
		_, _ = w.Write(*body.Load())
	}))
	t.Cleanup(owner.Close)
	peers := []cluster.Peer{{ID: "owner", Addr: owner.URL}, {ID: "self", Addr: "http://127.0.0.1:1"}}
	req, hash := loopOwnedBy(t, cluster.New(peers, 0), peers[0])
	other := compileRequest(t, copyAddLoop(31))

	// The honest entries, compiled by a standalone node.
	_, ref := newTestServer(t, server.Config{})
	for _, r := range []*wire.CompileRequest{req, other} {
		if resp, b := post(t, ref.URL+"/v2/compile", r); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference compile: %s: %s", resp.Status, b)
		}
	}
	honest := getBody(t, ref.URL+"/v2/artifacts/"+hash, "")
	otherHash, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.DecodeEntry(hash, honest)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := func(response, trace string) []byte {
		bad := &store.Entry{Hash: hash, Request: e.Request, Response: json.RawMessage(response),
			Trace: json.RawMessage(trace), Verify: e.Verify, CreatedUnix: e.CreatedUnix}
		return bad.Encode()
	}
	// In transit, one letter of the response changes case — still valid
	// JSON — and nobody restamps the checksum the entry carries.
	flipped := bytes.Clone(honest)
	at := len(honest) - len(e.Trace) - len(e.Response) + bytes.Index(e.Response, []byte(`"outcome":"`)) + len(`"outcome":"`)
	flipped[at] ^= 0x20

	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"honest", honest, true},
		{"entry for another hash", getBody(t, ref.URL+"/v2/artifacts/"+otherHash, ""), false},
		{"section flipped in transit", flipped, false},
		{"response not JSON", rebuilt(`{"hash":`, string(e.Trace)), false},
		{"trace not JSON", rebuilt(string(e.Response), `[{"kind":`), false},
		{"version-1 JSON envelope", parentFormat(t, e), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body.Store(&tc.body)
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(st.Close)
			srv := server.New(server.Config{Peers: peers, Self: "self", Replication: 1, Store: st,
				PeerTimeout: 2 * time.Second, PeerHedgeDelay: 10 * time.Millisecond})
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			resp, b := post(t, ts.URL+"/v2/compile", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compile: %s: %s", resp.Status, b)
			}
			var m clusterMetricsDoc
			get(t, ts.URL+"/metrics", &m)
			if tc.ok {
				if m.Cluster.PeerHits != 1 || m.Cluster.PeerErrors != 0 || m.compiles() != 0 {
					t.Fatalf("peer_hits %d, peer_errors %d, compiles %d; want a peer fill",
						m.Cluster.PeerHits, m.Cluster.PeerErrors, m.compiles())
				}
				return
			}
			if m.Cluster.PeerHits != 0 || m.Cluster.PeerErrors != 1 || m.compiles() != 1 {
				t.Fatalf("peer_hits %d, peer_errors %d, compiles %d; want one rejected fill and a local compile",
					m.Cluster.PeerHits, m.Cluster.PeerErrors, m.compiles())
			}
			// The one write is the local compile's, and it holds the honest sections.
			got, _, err := st.Get(hash)
			if err != nil {
				t.Fatal(err)
			}
			if m.Disk.Writes != 1 || !bytes.Equal(got.Response, e.Response) || !bytes.Equal(got.Trace, e.Trace) {
				t.Fatalf("disk writes %d, stored response equal %v, trace equal %v; want only the local compile persisted",
					m.Disk.Writes, bytes.Equal(got.Response, e.Response), bytes.Equal(got.Trace, e.Trace))
			}
		})
	}
}

// TestParentFormatEntryHeals: a store entry in the version-1 JSON format
// fails the magic check like any corrupt entry — Get deletes it — and a
// compile recompiles and persists it in the current encoding. The
// section checksum is defined as before, so the provenance pin recorded
// for the old entry still matches, and the chain stays verifiable.
func TestParentFormatEntryHeals(t *testing.T) {
	storeDir, provDir := t.TempDir(), t.TempDir()
	req := compileRequest(t, copyAddLoop(4500))
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// A version-1 node compiled the loop and pinned its checksum.
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
	if resp, body := post(t, ts1.URL+"/v2/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	ts1.Close()
	srv1.Close()
	if err := prov1.Close(); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	path := filepath.Join(storeDir, hash[:2], hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := store.DecodeEntry(hash, data)
	if err != nil {
		t.Fatal(err)
	}
	legacy := parentFormat(t, old)
	plant := func() {
		t.Helper()
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant()

	// 1. Get quarantines the old entry.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st2.Close)
	if _, _, err := st2.Get(hash); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Get on a version-1 entry: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("version-1 entry not removed (stat err %v)", err)
	}

	// 2. Planted again, the server meets it on its disk tier, recompiles
	// and persists the current encoding.
	plant()
	if err := st2.Scan(); err != nil {
		t.Fatal(err)
	}
	prov2, err := store.OpenLog(provDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pin, ok := prov2.Latest(hash)
	if !ok || pin != old.Checksum {
		t.Fatalf("provenance pin %q (%v), want the old entry's checksum %q", pin, ok, old.Checksum)
	}
	srv2 := server.New(server.Config{Store: st2, Provenance: prov2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	resp, body := post(t, ts2.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile over the version-1 entry: %s: %s", resp.Status, body)
	}
	var m selfhealMetricsDoc
	get(t, ts2.URL+"/metrics", &m)
	if m.compiles() != 1 || st2.Stats().Corrupt != 2 {
		t.Fatalf("compiles %d, store corrupt %d; want a recompile after the second quarantine", m.compiles(), st2.Stats().Corrupt)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	healed, err := store.DecodeEntry(hash, data)
	if err != nil {
		t.Fatalf("re-persisted entry: %v", err)
	}

	// 3. The provenance endpoint reads consistent; 4. the new entry's
	// checksum is the pin recorded for the old one.
	var pr wire.ProvenanceResponse
	get(t, ts2.URL+"/v2/provenance/"+hash, &pr)
	if !pr.Present || !pr.Consistent {
		t.Fatalf("healed entry reported present=%v consistent=%v", pr.Present, pr.Consistent)
	}
	if healed.Checksum != pin {
		t.Fatalf("healed checksum %s, pinned %s", healed.Checksum, pin)
	}

	// 5. The chain still verifies.
	ts2.Close()
	srv2.Close()
	if err := prov2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyDir(provDir, 0); err != nil {
		t.Fatalf("provenance chain: %v", err)
	}
}
