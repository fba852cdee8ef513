package server_test

import (
	"bytes"
	encbinary "encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// binFrame encodes loop+options as a binary compile-request frame.
func binFrame(t testing.TB, l *ir.Loop, opts ltsp.Options) []byte {
	t.Helper()
	req, err := wire.NewCompileRequest(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := binary.EncodeCompileRequest(nil, l, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postRaw sends body with explicit Content-Type and Accept headers and
// returns the response plus its full body.
func postRaw(t testing.TB, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
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

func testLoop(t testing.TB) *ir.Loop {
	t.Helper()
	return workload.All()[0].Loops[0].Gen()
}

// TestV2UnknownContentType: a Content-Type the server does not speak is
// rejected up front with 415 and the v2 error envelope, on both compile
// endpoints.
func TestV2UnknownContentType(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, path := range []string{"/v2/compile", "/v2/compile-batch"} {
		resp, data := postRaw(t, ts.URL+path, "application/xml", "", []byte(`<loop/>`))
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status = %d, want 415", path, resp.StatusCode)
		}
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: 415 body is not the JSON envelope: %v", path, err)
		}
		if env.Error.Code != wire.CodeUnsupportedMedia {
			t.Fatalf("%s: code = %q, want %q", path, env.Error.Code, wire.CodeUnsupportedMedia)
		}
		if env.Error.Retryable {
			t.Fatalf("%s: unsupported media marked retryable", path)
		}
	}
}

// TestNegotiationMatrix: request and response encodings are independent.
// All four corners of the matrix must produce the same compile result.
func TestNegotiationMatrix(t *testing.T) {
	l := testLoop(t)
	jreq, err := wire.NewCompileRequest(l, ltsp.Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := json.Marshal(jreq)
	binBody := binFrame(t, l, ltsp.Options{LatencyTolerant: true})

	decode := func(t *testing.T, resp *http.Response, data []byte, wantBin bool) *wire.CompileResponse {
		t.Helper()
		ct := resp.Header.Get("Content-Type")
		out := new(wire.CompileResponse)
		if wantBin {
			if ct != binary.ContentType {
				t.Fatalf("Content-Type = %q, want %q", ct, binary.ContentType)
			}
			out, err = binary.DecodeCompileResponse(data)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			if ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	// Fresh server per corner so every compile is a cold one and the
	// four results are comparable field for field.
	var want *wire.CompileResponse
	for _, tc := range []struct {
		name        string
		contentType string
		accept      string
		body        []byte
		binResp     bool
	}{
		{"json-json", "application/json", "", jsonBody, false},
		{"json-binary", "application/json", binary.ContentType, jsonBody, true},
		{"binary-json", binary.ContentType, "application/json", binBody, false},
		{"binary-binary", binary.ContentType, binary.ContentType, binBody, true},
	} {
		_, ts := newTestServer(t, server.Config{})
		resp, data := postRaw(t, ts.URL+"/v2/compile", tc.contentType, tc.accept, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", tc.name, resp.StatusCode, data)
		}
		got := decode(t, resp, data, tc.binResp)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: compile result differs from json-json corner:\nwant %+v\ngot  %+v", tc.name, want, got)
		}
	}
}

// TestBinaryFrameRejection: malformed binary bodies map onto the same
// envelope codes the JSON path uses, with no allocation blowup for
// absurd length prefixes.
func TestBinaryFrameRejection(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	frame := binFrame(t, testLoop(t), ltsp.Options{})

	check := func(name string, body []byte, wantCode string) {
		t.Helper()
		resp, data := postRaw(t, ts.URL+"/v2/compile", binary.ContentType, "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", name, resp.StatusCode, data)
		}
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: error body is not the JSON envelope: %v", name, err)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("%s: code = %q, want %q", name, env.Error.Code, wantCode)
		}
	}

	check("truncated", frame[:len(frame)-3], wire.CodeInvalidRequest)
	check("trailing byte", append(bytes.Clone(frame), 0x00), wire.CodeInvalidRequest)
	check("bad magic", []byte("XYZ\x01\x01\x00"), wire.CodeInvalidRequest)
	// Length prefix claiming ~256MB with a 10-byte body: rejected from
	// the frame header alone.
	check("absurd length prefix", []byte{'L', 'T', 'B', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, wire.CodeInvalidRequest)
	ver := bytes.Clone(frame)
	ver[3] = 99
	check("future version", ver, wire.CodeUnsupportedVersion)
}

// TestUnsupportedVersionAlike: a future request envelope version gets
// the same unsupported_version envelope from /v2/compile whether it
// arrives as JSON ("v":9) or as a binary frame whose envelope version
// is 2 (the frame format itself is current).
func TestUnsupportedVersionAlike(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, err := wire.NewCompileRequest(testLoop(t), ltsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req.Version = 9
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	frame := binFrame(t, testLoop(t), ltsp.Options{})
	_, n := encbinary.Uvarint(frame[5:]) // payload length; the envelope version follows
	if frame[5+n] != wire.Version {
		t.Fatalf("envelope version byte = %d, want %d", frame[5+n], wire.Version)
	}
	frame[5+n] = 2
	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", binary.ContentType, frame},
	} {
		resp, data := postRaw(t, ts.URL+"/v2/compile", tc.contentType, "", tc.body)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: error body is not the JSON envelope: %v (%s)", tc.name, err, data)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != wire.CodeUnsupportedVersion || env.Error.Retryable {
			t.Fatalf("%s: status %d, envelope %+v; want 400 unsupported_version", tc.name, resp.StatusCode, env.Error)
		}
	}
}

// TestBinaryBatch: a binary batch request with a binary Accept round
// trips through /v2/compile-batch.
func TestBinaryBatch(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var loops []*ir.Loop
	var opts []wire.Options
	for _, spec := range workload.All()[0].Loops {
		loops = append(loops, spec.Gen())
		opts = append(opts, wire.Options{})
		if len(loops) == 3 {
			break
		}
	}
	frame, err := binary.EncodeCompileBatch(nil, loops, opts)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, ts.URL+"/v2/compile-batch", binary.ContentType, binary.ContentType, frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != binary.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	batch, err := binary.DecodeCompileBatchResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(loops) {
		t.Fatalf("items = %d, want %d", len(batch.Items), len(loops))
	}
	for i, item := range batch.Items {
		if item.Error != "" || item.CompileResponse == nil {
			t.Fatalf("item[%d]: error %q", i, item.Error)
		}
	}
}

// TestArtifactBodyIgnoresAccept: GET /v2/artifacts/{hash} serves one
// body — the store's entry encoding — under one content type, whatever
// the Accept header asks for, and the store's decoder accepts it.
func TestArtifactBodyIgnoresAccept(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, err := wire.NewCompileRequest(testLoop(t), ltsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts.URL+"/v2/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	var cr wire.CompileResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}

	var first []byte
	for _, accept := range []string{"", "application/json", binary.ContentType} {
		areq, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/artifacts/"+cr.Hash, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			areq.Header.Set("Accept", accept)
		}
		aresp, err := http.DefaultClient.Do(areq)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(aresp.Body)
		aresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if aresp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: %d %s", accept, aresp.StatusCode, body)
		}
		if ct := aresp.Header.Get("Content-Type"); ct != store.ContentType {
			t.Fatalf("Accept %q: Content-Type = %q, want %q", accept, ct, store.ContentType)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("Accept %q changed the artifact body (%d vs %d bytes)", accept, len(body), len(first))
		}
	}
	e, err := store.DecodeEntry(cr.Hash, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckJSON(); err != nil {
		t.Fatal(err)
	}
	var inner wire.CompileResponse
	if err := json.Unmarshal(e.Response, &inner); err != nil || inner.Listing != cr.Listing {
		t.Fatalf("artifact response section does not match the compile response (%v)", err)
	}
}

// TestHotPathRepeat: a byte-identical repeat of a compile body is served
// from the prerendered hot map — Cached=true, and every subsequent
// repeat returns byte-identical bytes in both encodings.
func TestHotPathRepeat(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, err := wire.NewCompileRequest(testLoop(t), ltsp.Options{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)

	resp1, data1 := postRaw(t, ts.URL+"/v2/compile", "application/json", "", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp1.StatusCode, data1)
	}
	var first wire.CompileResponse
	if err := json.Unmarshal(data1, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first compile reported Cached=true")
	}

	_, data2 := postRaw(t, ts.URL+"/v2/compile", "application/json", "", body)
	_, data3 := postRaw(t, ts.URL+"/v2/compile", "application/json", "", body)
	var second wire.CompileResponse
	if err := json.Unmarshal(data2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat compile not served as cached")
	}
	if !bytes.Equal(data2, data3) {
		t.Fatal("two hot serves returned different bytes")
	}
	// Everything but the cached flag matches the cold compile.
	second.Cached = first.Cached
	if !reflect.DeepEqual(&first, &second) {
		t.Fatalf("hot serve altered the compile result:\ncold %+v\nhot  %+v", &first, &second)
	}

	// The same body with a binary Accept is served from the same entry,
	// prerendered in the binary encoding.
	respB, dataB := postRaw(t, ts.URL+"/v2/compile", "application/json", binary.ContentType, body)
	if ct := respB.Header.Get("Content-Type"); ct != binary.ContentType {
		t.Fatalf("hot binary serve Content-Type = %q", ct)
	}
	binResp, err := binary.DecodeCompileResponse(dataB)
	if err != nil {
		t.Fatal(err)
	}
	if !binResp.Cached {
		t.Fatal("hot binary serve not marked cached")
	}
}

// TestWireEquivalenceAllModels is the acceptance gate: for every loop of
// all 55 workload models, a JSON-fed and a binary-fed compile return
// byte-identical response bodies. Two fresh servers keep both compiles
// cold so the bodies are comparable bit for bit.
func TestWireEquivalenceAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("all-models equivalence is not a -short test")
	}
	_, tsJSON := newTestServer(t, server.Config{})
	_, tsBin := newTestServer(t, server.Config{})

	models := 0
	for _, b := range workload.All() {
		models++
		for _, spec := range b.Loops {
			name := b.Name + "/" + spec.Name
			l := spec.Gen()
			req, err := wire.NewCompileRequest(l, ltsp.Options{LatencyTolerant: true, Prefetch: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			jsonBody, _ := json.Marshal(req)
			frame, err := binary.EncodeCompileRequest(nil, l, req.Options)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			respJ, dataJ := postRaw(t, tsJSON.URL+"/v2/compile", "application/json", "", jsonBody)
			respB, dataB := postRaw(t, tsBin.URL+"/v2/compile", binary.ContentType, "", frame)
			if respJ.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
				t.Fatalf("%s: status json=%d binary=%d (json body %s) (binary body %s)",
					name, respJ.StatusCode, respB.StatusCode, dataJ, dataB)
			}
			if !bytes.Equal(dataJ, dataB) {
				t.Fatalf("%s: compile result depends on request encoding:\njson-fed   %s\nbinary-fed %s", name, dataJ, dataB)
			}
		}
	}
	if models != 55 {
		t.Fatalf("workload suite has %d models, expected 55", models)
	}
}
