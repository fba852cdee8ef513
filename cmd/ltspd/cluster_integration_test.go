package main

// Multi-process cluster integration: three real ltspd processes on
// loopback sharing work through the consistent-hash ring and their
// persistent stores. The test builds the binary, boots the fleet,
// compiles on one node, hits the artifact from another, then kills and
// restarts the first node and proves it warm-starts from disk.
//
// Gated behind LTSP_CLUSTER_IT: it spawns processes and binds ports, so
// plain `go test ./...` stays hermetic. CI runs it as its own job:
//
//	LTSP_CLUSTER_IT=1 go test -run TestClusterIntegration -v ./cmd/ltspd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/ir"
	"ltsp/internal/store"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
	"ltsp/ltspclient"
)

func TestClusterIntegration(t *testing.T) {
	if os.Getenv("LTSP_CLUSTER_IT") == "" {
		t.Skip("set LTSP_CLUSTER_IT=1 to run the multi-process cluster test")
	}

	bin := filepath.Join(t.TempDir(), "ltspd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const nodes = 3
	ports := freePorts(t, nodes)
	peers := make([]cluster.Peer, nodes)
	peerFlag := ""
	for i, p := range ports {
		id := string(rune('a' + i))
		peers[i] = cluster.Peer{ID: id, Addr: fmt.Sprintf("http://127.0.0.1:%d", p)}
		if i > 0 {
			peerFlag += ","
		}
		peerFlag += fmt.Sprintf("%s=%s", id, peers[i].Addr)
	}

	dirs := make([]string, nodes)
	procs := make([]*exec.Cmd, nodes)
	startNode := func(i int) {
		t.Helper()
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-data-dir", dirs[i],
			"-peers", peerFlag,
			"-self", peers[i].ID,
			"-replication", "2",
			"-anti-entropy-interval", "300ms",
			"-peer-probe-interval", "300ms",
			"-log-text", "-log-level", "warn",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start node %s: %v", peers[i].ID, err)
		}
		procs[i] = cmd
		waitHealthy(t, peers[i].Addr)
	}
	stopNode := func(i int) {
		t.Helper()
		_ = procs[i].Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- procs[i].Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = procs[i].Process.Kill()
			<-done
		}
		procs[i] = nil
	}
	for i := 0; i < nodes; i++ {
		dirs[i] = t.TempDir()
		startNode(i)
	}
	t.Cleanup(func() {
		for i, p := range procs {
			if p != nil {
				stopNode(i)
			}
		}
	})

	// Pick two loops whose replica set is {a, c}: compiled on a, they
	// reach b only through a peer cache-fill. The first drives the plain
	// fill assertions; the second is requested under a trace so the
	// cross-node span timeline can be checked end to end.
	ring := cluster.New(peers, 0)
	var reqs []*wire.CompileRequest
	var hashes []string
	for k := int64(0); k < 2048 && len(reqs) < 2; k++ {
		r, h := exampleRequest(t, 700+k)
		owners := ring.Owners(h, 2)
		if len(owners) == 2 && owners[0].ID == "a" && !ownersContain(owners, "b") {
			reqs, hashes = append(reqs, r), append(hashes, h)
		}
	}
	if len(reqs) < 2 {
		t.Fatal("fewer than two loop variants with replica set {a, c}")
	}
	req, hash := reqs[0], hashes[0]

	// Compile on a.
	var cr wire.CompileResponse
	postJSON(t, peers[0].Addr+"/v2/compile", req, &cr)
	if cr.Hash != hash || cr.Cached {
		t.Fatalf("compile on a: hash %s cached %v, want %s uncached", cr.Hash, cr.Cached, hash)
	}

	// Hit on b: not an owner, so this is a cross-peer fill.
	postJSON(t, peers[1].Addr+"/v2/compile", req, &cr)
	if !cr.Cached {
		t.Fatal("compile on b not served from the cluster")
	}
	var m struct {
		Cluster struct {
			PeerHits int64 `json:"peer_hits"`
		} `json:"cluster"`
	}
	getJSON(t, peers[1].Addr+"/metrics", &m)
	if m.Cluster.PeerHits < 1 {
		t.Fatalf("node b peer_hits = %d, want >= 1", m.Cluster.PeerHits)
	}

	// Traced cross-peer fill: compile the second loop on a, request it on
	// b through the real client under a telemetry trace, and fetch the
	// span timeline back from b. One trace ID must show the client's
	// attempt, b's cache miss, the winning peer leg naming the owner it
	// pulled from, and the write-through.
	postJSON(t, peers[0].Addr+"/v2/compile", reqs[1], &cr)
	if cr.Hash != hashes[1] {
		t.Fatalf("compile traced loop on a: hash %s, want %s", cr.Hash, hashes[1])
	}
	cl, err := ltspclient.New(ltspclient.Config{BaseURL: peers[1].Addr})
	if err != nil {
		t.Fatal(err)
	}
	ttr := telemetry.New("")
	tctx := telemetry.WithSpan(context.Background(), ttr, nil)
	tcr, err := cl.Compile(tctx, reqs[1])
	if err != nil {
		t.Fatalf("traced compile on b: %v", err)
	}
	if !tcr.Cached {
		t.Fatal("traced compile on b not served from the cluster")
	}
	var attemptSeen bool
	for _, s := range ttr.Snapshot() {
		if s.Name == "attempt" {
			attemptSeen = true
		}
	}
	if !attemptSeen {
		t.Fatal("client recorded no attempt span")
	}
	// The server records a trace after the response is written: retry.
	var srvTrace *wire.RequestTraceResponse
	for i := 0; i < 40; i++ {
		srvTrace, err = cl.RequestTrace(context.Background(), ttr.ID())
		if err == nil || !errors.Is(err, ltspclient.ErrNotFound) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("fetch trace %s from b: %v", ttr.ID(), err)
	}
	stage := make(map[string]wire.SpanJSON)
	for _, s := range srvTrace.Spans {
		stage[s.Name] = s
	}
	if s, ok := stage["mem_lookup"]; !ok || s.Attrs["outcome"] != "miss" {
		t.Errorf("mem_lookup span = %+v, want outcome miss", s)
	}
	leg, ok := stage["peer_leg"]
	if !ok {
		t.Fatalf("no peer_leg span in %d spans", len(srvTrace.Spans))
	}
	if leg.Attrs["outcome"] != "hit" || (leg.Attrs["peer"] != "a" && leg.Attrs["peer"] != "c") {
		t.Errorf("winning peer_leg = %+v, want outcome hit from owner a or c", leg.Attrs)
	}
	if _, ok := stage["write_through"]; !ok {
		t.Error("no write_through span after the peer fill")
	}
	if _, ok := stage["compile"]; ok {
		t.Error("b compiled despite the peer fill")
	}

	// Export the timeline as Chrome trace events; CI uploads it as a
	// build artifact when LTSP_SPAN_OUT names a path.
	cresp, err := http.Get(peers[1].Addr + "/v2/requests/" + ttr.ID() + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if err != nil || cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: %s: %v", cresp.Status, err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil || len(events) == 0 {
		t.Fatalf("chrome export is not a non-empty event array: %v", err)
	}
	if out := os.Getenv("LTSP_SPAN_OUT"); out != "" {
		if err := os.WriteFile(out, chrome, 0o644); err != nil {
			t.Fatalf("write span timeline artifact: %v", err)
		}
		t.Logf("span timeline written to %s (%d events)", out, len(events))
	}

	// A Prometheus scrape of b parses and carries the per-stage family.
	preq, err := http.NewRequest(http.MethodGet, peers[1].Addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: %s: %v", presp.Status, err)
	}
	if !bytes.HasPrefix(prom, []byte("# HELP ")) ||
		!bytes.Contains(prom, []byte(`ltspd_stage_latency_ms_count{stage="peer_leg"}`)) {
		t.Fatalf("prometheus exposition missing per-stage histograms:\n%.400s", prom)
	}

	// Kill a and bring it back on the same data dir: the artifact must
	// survive the restart and be served without recompiling.
	stopNode(0)
	startNode(0)
	postJSON(t, peers[0].Addr+"/v2/compile", req, &cr)
	if !cr.Cached {
		t.Fatal("restarted node a recompiled instead of warm-starting from disk")
	}
	var ma struct {
		DiskHits int64 `json:"disk_hits"`
	}
	getJSON(t, peers[0].Addr+"/metrics", &ma)
	if ma.DiskHits < 1 {
		t.Fatalf("restarted node a disk_hits = %d, want >= 1", ma.DiskHits)
	}
	// An inline simulate of the other loop compiled before the restart
	// reads its artifact from disk and materializes the program.
	var sr wire.SimulateResponse
	postJSON(t, peers[0].Addr+"/v2/simulate", &wire.SimulateRequest{
		Version: wire.Version, Loop: reqs[1].Loop, Options: reqs[1].Options, Trip: 64,
	}, &sr)
	if sr.Hash != hashes[1] || sr.Cycles < 64 {
		t.Fatalf("inline simulate on restarted a: hash %s, %d cycles", sr.Hash, sr.Cycles)
	}

	// Self-healing: kill c, write a batch that c co-owns on the surviving
	// owners, restart c, and prove anti-entropy repopulates it — with
	// every node pinning each artifact under the same provenance checksum.
	var healReqs []*wire.CompileRequest
	var healHashes []string
	var healOwners []cluster.Peer // the surviving owner to compile on
	for k := int64(0); k < 4096 && len(healReqs) < 3; k++ {
		r, h := exampleRequest(t, 9100+k)
		owners := ring.Owners(h, 2)
		if len(owners) == 2 && ownersContain(owners, "c") && owners[0].ID != "c" {
			healReqs, healHashes = append(healReqs, r), append(healHashes, h)
			healOwners = append(healOwners, owners[0])
		}
	}
	if len(healReqs) < 3 {
		t.Fatal("fewer than three loop variants co-owned by c")
	}
	stopNode(2)
	for i, r := range healReqs {
		var who int
		for j, p := range peers {
			if p.ID == healOwners[i].ID {
				who = j
			}
		}
		postJSON(t, peers[who].Addr+"/v2/compile", r, &cr)
		if cr.Hash != healHashes[i] {
			t.Fatalf("heal-batch compile %d: hash %s, want %s", i, cr.Hash, healHashes[i])
		}
	}
	startNode(2)

	// Anti-entropy on the restarted node pulls everything it co-owns.
	type provDoc struct {
		Checksum   string `json:"checksum"`
		Present    bool   `json:"present"`
		Consistent bool   `json:"consistent"`
		HeadSeq    uint64 `json:"head_seq"`
	}
	provOn := func(node int, hash string) (provDoc, bool) {
		resp, err := http.Get(peers[node].Addr + "/v2/provenance/" + hash)
		if err != nil {
			return provDoc{}, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return provDoc{}, false
		}
		var d provDoc
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return provDoc{}, false
		}
		return d, true
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		healed := 0
		for _, h := range healHashes {
			if d, ok := provOn(2, h); ok && d.Present && d.Consistent {
				healed++
			}
		}
		if healed == len(healHashes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node c reconverged only %d/%d artifacts", healed, len(healHashes))
		}
		time.Sleep(100 * time.Millisecond)
	}
	var mc struct {
		Cluster struct {
			SyncPulls int64 `json:"sync_pulls"`
		} `json:"cluster"`
	}
	getJSON(t, peers[2].Addr+"/metrics", &mc)
	if mc.Cluster.SyncPulls < int64(len(healHashes)) {
		t.Fatalf("node c sync_pulls = %d, want >= %d", mc.Cluster.SyncPulls, len(healHashes))
	}
	// Every node holding a record for a healed hash pins the same
	// checksum; c holds all of them.
	for _, h := range healHashes {
		var want string
		holders := 0
		for n := 0; n < nodes; n++ {
			d, ok := provOn(n, h)
			if !ok {
				continue
			}
			holders++
			if want == "" {
				want = d.Checksum
			} else if d.Checksum != want {
				t.Fatalf("hash %s: node %d checksum %q diverges from %q", h[:12], n, d.Checksum, want)
			}
		}
		if holders < 2 {
			t.Fatalf("hash %s: only %d nodes hold a provenance record", h[:12], holders)
		}
	}

	// Stop the fleet cleanly, then verify each node's on-disk provenance
	// chain end to end — records, links, Merkle batch roots.
	for i := range procs {
		if procs[i] != nil {
			stopNode(i)
		}
	}
	for i := range dirs {
		if err := store.VerifyDir(dirs[i], 0); err != nil {
			t.Fatalf("node %s provenance chain: %v", peers[i].ID, err)
		}
	}
	// CI uploads node a's chain as a build artifact when LTSP_PROV_OUT
	// names a directory.
	if out := os.Getenv("LTSP_PROV_OUT"); out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{store.LogPath(dirs[0]), store.RootsPath(dirs[0])} {
			data, err := os.ReadFile(src)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				t.Fatal(err)
			}
			dst := filepath.Join(out, filepath.Base(src))
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("provenance artifact written to %s (%d bytes)", dst, len(data))
		}
	}
}

func ownersContain(ps []cluster.Peer, id string) bool {
	for _, p := range ps {
		if p.ID == id {
			return true
		}
	}
	return false
}

// freePorts reserves n distinct loopback ports. The listeners close
// before the daemons bind — a small race, harmless on a CI box.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().(*net.TCPAddr).Port
		l.Close()
	}
	return ports
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("node %s never became healthy", base)
}

// exampleRequest builds the paper's running example with a
// distinguishing constant k, so each k is a distinct artifact.
func exampleRequest(t *testing.T, k int64) (*wire.CompileRequest, string) {
	t.Helper()
	l := ir.NewLoop("copyadd")
	v, bs, bd, r, kr := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	l.Append(ir.Add(r, v, kr))
	st := ir.St(bd, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(st)
	l.Init(bs, 0x100000)
	l.Init(bd, 0x200000)
	l.Init(kr, k)
	l.LiveOut = []ir.Reg{bs, bd}
	data, err := ir.EncodeLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.CompileRequest{Version: wire.Version, Loop: data,
		Options: wire.Options{Mode: "hlo", Prefetch: true, LatencyTolerant: true}}
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return req, hash
}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
