package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/server"
	"ltsp/internal/wire"
)

// postTraced posts a JSON body carrying an explicit X-Trace-ID header —
// a request that asks to be traced is always traced, regardless of the
// server's sampling rate.
func postTraced(t testing.TB, url string, body any, traceID string) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// fetchTrace gets /v2/requests/{id}, retrying briefly: the server
// records a trace after the response is written, so an immediate fetch
// can race the recording.
func fetchTrace(t testing.TB, base, traceID string) *wire.RequestTraceResponse {
	t.Helper()
	for i := 0; i < 40; i++ {
		resp, err := http.Get(base + "/v2/requests/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var tr wire.RequestTraceResponse
			if err := json.Unmarshal(data, &tr); err != nil {
				t.Fatal(err)
			}
			return &tr
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /v2/requests/%s: %s: %s", traceID, resp.Status, data)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("trace %s never appeared in the registry", traceID)
	return nil
}

// spanByName returns the first span with the given name, or nil.
func spanByName(spans []wire.SpanJSON, name string) *wire.SpanJSON {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestTracedCompileSpans: a compile carrying X-Trace-ID is traced end to
// end — the response echoes the trace ID and the retained timeline has
// the per-stage spans with outcomes, a cold miss first, then a hit.
func TestTracedCompileSpans(t *testing.T) {
	_, ts := newTestServer(t, server.Config{TraceSample: -1}) // sampling off: only the header traces
	req := compileRequest(t, copyAddLoop(4001))

	const id = "trace00cold00001"
	resp, body := postTraced(t, ts.URL+"/v2/compile", req, id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get(wire.TraceHeader); got != id {
		t.Errorf("response %s = %q, want %q echoed", wire.TraceHeader, got, id)
	}

	tr := fetchTrace(t, ts.URL, id)
	if tr.TraceID != id || tr.Status != http.StatusOK {
		t.Errorf("trace header = %+v", tr)
	}
	if tr.Name != "POST /v2/compile" {
		t.Errorf("trace name = %q", tr.Name)
	}

	root := spanByName(tr.Spans, "server POST /v2/compile")
	if root == nil {
		t.Fatalf("no server root span in %d spans", len(tr.Spans))
	}
	if root.Attrs["request_id"] == "" {
		t.Error("root span has no request_id attr")
	}
	for _, name := range []string{"queue_wait", "mem_lookup", "compile"} {
		s := spanByName(tr.Spans, name)
		if s == nil {
			t.Errorf("missing %s span", name)
			continue
		}
		if s.DurNs <= 0 {
			t.Errorf("%s span is still open", name)
		}
		if s.Parent == "" {
			t.Errorf("%s span has no parent", name)
		}
	}
	if got := spanByName(tr.Spans, "mem_lookup").Attrs["outcome"]; got != "miss" {
		t.Errorf("cold mem_lookup outcome = %q, want miss", got)
	}
	if s := spanByName(tr.Spans, "compile"); s != nil && s.Attrs["outcome"] == "" {
		t.Error("compile span has no outcome attr")
	}

	// Same loop again under a fresh trace: served from memory.
	const id2 = "trace00warm00001"
	resp, body = postTraced(t, ts.URL+"/v2/compile", req, id2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: %s: %s", resp.Status, body)
	}
	tr2 := fetchTrace(t, ts.URL, id2)
	mem := spanByName(tr2.Spans, "mem_lookup")
	if mem == nil {
		t.Fatal("warm request has no mem_lookup span")
	}
	if got := mem.Attrs["outcome"]; got != "hit" {
		t.Errorf("warm mem_lookup outcome = %q, want hit", got)
	}
	if s := spanByName(tr2.Spans, "compile"); s != nil {
		t.Error("warm request recorded a compile span")
	}
}

// TestTracedPeerFill is the issue's acceptance test in-process: a traced
// compile against a non-owner shows the owner lookup miss, the winning
// peer leg with the peer's ID, and the write-through — one timeline for
// a cross-node request.
func TestTracedPeerFill(t *testing.T) {
	checkGoroutineLeaks(t)
	_, tss, peers := clusterNodes(t, 2, func(i int, cfg *server.Config) {
		cfg.TraceSample = -1
	})
	ring := cluster.New(peers, 0)
	req, _ := loopOwnedBy(t, ring, peers[0])

	// Warm the owner so the non-owner's peer fill hits.
	resp, body := post(t, tss[0].URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner compile: %s: %s", resp.Status, body)
	}

	const id = "trace0peerfill01"
	resp, body = postTraced(t, tss[1].URL+"/v2/compile", req, id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner compile: %s: %s", resp.Status, body)
	}

	tr := fetchTrace(t, tss[1].URL, id)
	if s := spanByName(tr.Spans, "mem_lookup"); s == nil || s.Attrs["outcome"] != "miss" {
		t.Errorf("mem_lookup span = %+v, want outcome miss", s)
	}
	fill := spanByName(tr.Spans, "peer_fill")
	if fill == nil {
		t.Fatal("no peer_fill span")
	}
	if got := fill.Attrs["outcome"]; got != "hit" {
		t.Errorf("peer_fill outcome = %q, want hit", got)
	}
	leg := spanByName(tr.Spans, "peer_leg")
	if leg == nil {
		t.Fatal("no peer_leg span")
	}
	if got := leg.Attrs["peer"]; got != peers[0].ID {
		t.Errorf("peer_leg peer = %q, want owner %q", got, peers[0].ID)
	}
	if got := leg.Attrs["outcome"]; got != "hit" {
		t.Errorf("peer_leg outcome = %q, want hit", got)
	}
	if leg.Parent != fill.ID {
		t.Errorf("peer_leg parent = %q, want peer_fill %q", leg.Parent, fill.ID)
	}
	if spanByName(tr.Spans, "write_through") == nil {
		t.Error("no write_through span after a peer hit")
	}
	if spanByName(tr.Spans, "compile") != nil {
		t.Error("non-owner compiled despite the peer hit")
	}

	// The owner's artifact GET was also traced under the same ID: its
	// server hop nests under the non-owner's peer_leg span.
	otr := fetchTrace(t, tss[0].URL, id)
	var ownerRoot *wire.SpanJSON
	for i := range otr.Spans {
		if otr.Spans[i].Parent == leg.ID {
			ownerRoot = &otr.Spans[i]
		}
	}
	if ownerRoot == nil {
		t.Fatalf("owner recorded no span parented under peer_leg %s", leg.ID)
	}
}

// TestDebugRequestsListing: traced requests appear on /debug/requests.
func TestDebugRequestsListing(t *testing.T) {
	_, ts := newTestServer(t, server.Config{TraceSample: -1})
	const id = "trace000listing1"
	resp, body := postTraced(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(4003)), id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	fetchTrace(t, ts.URL, id) // wait for the record

	var list wire.RequestListResponse
	get(t, ts.URL+"/debug/requests", &list)
	found := false
	for _, r := range list.Requests {
		if r.TraceID == id {
			found = true
			if r.Name != "POST /v2/compile" || r.Status != http.StatusOK || r.Spans == 0 {
				t.Errorf("listing entry = %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in /debug/requests (%d entries)", id, len(list.Requests))
	}
}

// TestChromeTraceExport: ?format=chrome renders the span timeline as a
// catapult event array loadable in chrome://tracing.
func TestChromeTraceExport(t *testing.T) {
	_, ts := newTestServer(t, server.Config{TraceSample: -1})
	const id = "trace000chrome01"
	resp, body := postTraced(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(4004)), id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	fetchTrace(t, ts.URL, id)

	hresp, err := http.Get(ts.URL + "/v2/requests/" + id + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: %s", hresp.Status)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&events); err != nil {
		t.Fatalf("chrome export is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export has no events")
	}
	names := make(map[string]bool)
	for _, e := range events {
		if e.Ph != "X" {
			t.Errorf("event %s phase %q, want X", e.Name, e.Ph)
		}
		names[e.Name] = true
	}
	if !names["compile"] || !names["mem_lookup"] {
		t.Errorf("chrome export missing stage events: %v", names)
	}
}

// TestRequestTraceErrors: invalid IDs are 400s, unknown IDs 404s with
// the structured error envelope.
func TestRequestTraceErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v2/requests/bad%20id%21")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid trace ID: %s, want 400", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v2/requests/nosuchtrace00001")
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: %s, want 404", resp.Status)
	}
	if err != nil || envelope.Error.Code == "" {
		t.Errorf("404 body is not a structured error envelope: %v %+v", err, envelope)
	}
}

// TestUntracedRequestsNotRetained: with sampling off and no header, no
// trace is retained and no trace header is echoed.
func TestUntracedRequestsNotRetained(t *testing.T) {
	_, ts := newTestServer(t, server.Config{TraceSample: -1})
	resp, body := post(t, ts.URL+"/v2/compile", compileRequest(t, copyAddLoop(4005)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get(wire.TraceHeader); got != "" {
		t.Errorf("untraced response echoed trace ID %q", got)
	}
	var list wire.RequestListResponse
	get(t, ts.URL+"/debug/requests", &list)
	if len(list.Requests) != 0 {
		t.Errorf("untraced server retained %d traces", len(list.Requests))
	}
}
