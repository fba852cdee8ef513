package ltspclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ltsp"
	"ltsp/internal/server"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// newWireClients builds a real ltspd server plus one JSON-mode and one
// binary-mode client pointed at it.
func newWireClients(t *testing.T) (*Client, *Client) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(ts.Close)
	jc, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := New(Config{BaseURL: ts.URL, Wire: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	return jc, bc
}

func wireTestLoop(t testing.TB) *ltsp.Loop {
	t.Helper()
	return workload.All()[0].Loops[0].Gen()
}

// TestBinaryWireAgainstServer: a binary-mode client gets the same
// compile, batch, and artifact answers as a JSON-mode client from a real
// server — same hash, same schedule, integrity intact.
func TestBinaryWireAgainstServer(t *testing.T) {
	jc, bc := newWireClients(t)
	ctx := context.Background()
	l := wireTestLoop(t)
	opts := ltsp.Options{}

	jresp, err := jc.CompileLoop(ctx, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := bc.CompileLoop(ctx, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if jresp.Hash == "" || jresp.Hash != bresp.Hash {
		t.Fatalf("hash mismatch: json %q vs binary %q", jresp.Hash, bresp.Hash)
	}
	// The binary compile is served from the artifact the JSON compile
	// created, so Cached differs by design; everything else must match.
	bresp.Cached = jresp.Cached
	if !reflect.DeepEqual(jresp, bresp) {
		t.Fatalf("responses differ:\njson:   %+v\nbinary: %+v", jresp, bresp)
	}

	req, err := wire.NewCompileRequest(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := []wire.CompileItem{{Loop: req.Loop, Options: req.Options}}
	jb, err := jc.CompileBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bc.CompileBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb.Items) != 1 || bb.Items[0].Hash != jb.Items[0].Hash {
		t.Fatalf("batch mismatch: json %+v vs binary %+v", jb.Items, bb.Items)
	}

	ja, err := jc.Artifact(ctx, jresp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := bc.Artifact(ctx, jresp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if ja.Hash != ba.Hash || ja.Verify != ba.Verify {
		t.Fatalf("artifact mismatch: json %+v vs binary %+v", ja, ba)
	}
}

// TestBinary415IsAnError: a 415 answer to a binary frame comes back as
// the server's unsupported_media envelope after one attempt, and the
// client keeps sending binary: it has no JSON fallback.
func TestBinary415IsAnError(t *testing.T) {
	var binaryHits, otherHits atomic.Int64
	handler := func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Content-Type"), binary.ContentType) {
			binaryHits.Add(1)
		} else {
			otherHits.Add(1)
		}
		writeEnvelope(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia)
	}
	client, _ := newClient(t, handler, func(cfg *Config) { cfg.Wire = "binary" })

	l := wireTestLoop(t)
	for call := 1; call <= 2; call++ {
		_, err := client.CompileLoop(context.Background(), l, ltsp.Options{})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != wire.CodeUnsupportedMedia {
			t.Fatalf("call %d: err = %v, want an *APIError with code %s", call, err, wire.CodeUnsupportedMedia)
		}
		if got := client.Stats().Attempts; got != int64(call) {
			t.Fatalf("call %d: %d attempts in total, want %d", call, got, call)
		}
	}
	if b, o := binaryHits.Load(), otherHits.Load(); b != 2 || o != 0 {
		t.Fatalf("server saw %d binary and %d other requests, want 2 and 0", b, o)
	}
}
