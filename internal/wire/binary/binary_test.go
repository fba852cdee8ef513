package binary_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// allLoops yields one freshly generated loop per workload loop spec,
// labeled benchmark/loop.
func allLoops() map[string]*ir.Loop {
	out := make(map[string]*ir.Loop)
	for _, b := range workload.All() {
		for _, spec := range b.Loops {
			out[b.Name+"/"+spec.Name] = spec.Gen()
		}
	}
	return out
}

var testOptions = []wire.Options{
	{},
	{Mode: "hlo", Prefetch: true, LatencyTolerant: true, BoostDelinquent: true, TripEstimate: 1000},
	{Mode: "all-l3", TripEstimate: 0.5},
	{Pipeline: func() *bool { b := true; return &b }()},
	{Pipeline: func() *bool { b := false; return &b }(), Mode: "all-fp-l2"},
	{Backend: "exact", LatencyTolerant: true},
	{Backend: "oracle", Mode: "hlo", Prefetch: true},
}

// TestRequestRoundTrip: every workload loop survives loop → binary →
// loop with the identical struct, the identical artifact hash as the
// JSON encoding of the same request, and identical canonical bytes.
func TestRequestRoundTrip(t *testing.T) {
	for name, l := range allLoops() {
		opts := testOptions[len(name)%len(testOptions)]
		frame, err := binary.EncodeCompileRequest(nil, l, opts)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		breq, err := binary.DecodeCompileRequest(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}

		jreq, err := wire.NewCompileRequest(l, mustOpts(t, opts))
		if err != nil {
			t.Fatalf("%s: json request: %v", name, err)
		}
		jd, err := jreq.Decode()
		if err != nil {
			t.Fatalf("%s: json decode: %v", name, err)
		}
		bd, err := breq.Decode()
		if err != nil {
			t.Fatalf("%s: binary decode: %v", name, err)
		}
		if jd.Hash != bd.Hash {
			t.Fatalf("%s: hash differs by transfer encoding: json %s binary %s", name, jd.Hash, bd.Hash)
		}
		if !reflect.DeepEqual(jd.Loop, bd.Loop) {
			t.Fatalf("%s: loop differs by transfer encoding", name)
		}
	}
}

// TestDecodeTwiceAfterCompile: Decode hands every caller a loop of its
// own, so a binary-decoded request (or batch item) decoded again after
// its first loop went through the compiler — whose HLO pass mutates the
// loop — still yields the same canonical bytes and hash.
func TestDecodeTwiceAfterCompile(t *testing.T) {
	gen, _ := workload.IntCopyAdd(16)
	opts := testOptions[1]
	frame, err := binary.EncodeCompileRequest(nil, gen(), opts)
	if err != nil {
		t.Fatal(err)
	}
	req, err := binary.DecodeCompileRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	batchFrame, err := binary.EncodeCompileBatch(nil, []*ir.Loop{gen()}, []wire.Options{opts})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := binary.DecodeCompileBatch(batchFrame)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*wire.CompileRequest{"request": req, "batch item": batch.Item(0)} {
		first, err := r.Decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before, _ := ir.EncodeLoop(first.Loop)
		if _, err := ltsp.Compile(first.Loop, first.Options); err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if after, _ := ir.EncodeLoop(first.Loop); bytes.Equal(before, after) {
			t.Fatalf("%s: the compile left its loop untouched; the test needs a mutating compile", name)
		}
		second, err := r.Decode()
		if err != nil {
			t.Fatalf("%s: second decode: %v", name, err)
		}
		if !bytes.Equal(first.Canonical, second.Canonical) || first.Hash != second.Hash {
			t.Fatalf("%s: second decode differs: hash %s then %s", name, first.Hash, second.Hash)
		}
	}
}

func mustOpts(t *testing.T, o wire.Options) ltsp.Options {
	t.Helper()
	lo, err := o.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestRequestSmallerThanJSON: the point of the format — a sanity bound,
// not a gate (cmd/benchguard gates decode speed).
func TestRequestSmallerThanJSON(t *testing.T) {
	var jsonBytes, binBytes int
	for _, l := range allLoops() {
		req, err := wire.NewCompileRequest(l, ltsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(req)
		frame, err := binary.EncodeCompileRequest(nil, l, wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(j)
		binBytes += len(frame)
	}
	if binBytes*2 > jsonBytes {
		t.Fatalf("binary requests not at least 2x smaller: %d binary vs %d JSON bytes", binBytes, jsonBytes)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var loops []*ir.Loop
	var opts []wire.Options
	i := 0
	for _, l := range allLoops() {
		loops = append(loops, l)
		opts = append(opts, testOptions[i%len(testOptions)])
		i++
		if len(loops) == 8 {
			break
		}
	}
	frame, err := binary.EncodeCompileBatch(nil, loops, opts)
	if err != nil {
		t.Fatal(err)
	}
	req, err := binary.DecodeCompileBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if req.Version != wire.Version {
		t.Fatalf("version = %d", req.Version)
	}
	if len(req.Items) != len(loops) {
		t.Fatalf("items = %d, want %d", len(req.Items), len(loops))
	}
	for i := range loops {
		bd, err := req.Item(i).Decode()
		if err != nil {
			t.Fatalf("item[%d]: %v", i, err)
		}
		jreq, err := wire.NewCompileRequest(loops[i], mustOpts(t, opts[i]))
		if err != nil {
			t.Fatal(err)
		}
		jd, err := jreq.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jd.Loop, bd.Loop) {
			t.Fatalf("item[%d]: loop differs", i)
		}
		if jd.Hash != bd.Hash {
			t.Fatalf("item[%d]: hash differs: %s vs %s", i, jd.Hash, bd.Hash)
		}
	}

	if _, err := binary.EncodeCompileBatch(nil, loops, opts[:1]); err == nil {
		t.Fatal("mismatched loops/options lengths not rejected")
	}
}

// TestBatchKeyBounded: a batch item's grouping key names each interned
// string by its table index, so a long comment referred back to by
// every instruction of several copies costs one copy of its text, not
// one per reference. The copies still group together.
func TestBatchKeyBounded(t *testing.T) {
	var l *ir.Loop
	for _, c := range allLoops() {
		if l == nil || len(c.Body) > len(l.Body) {
			l = c
		}
	}
	comment := strings.Repeat("c", 256<<10)
	for _, in := range l.Body {
		in.Comment = comment
	}
	const copies = 4
	loops := make([]*ir.Loop, copies)
	opts := make([]wire.Options, copies)
	for i := range loops {
		loops[i] = l
	}
	frame, err := binary.EncodeCompileBatch(nil, loops, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(frame, []byte(comment)); n != 1 {
		t.Fatalf("comment appears %d times in the frame, want 1", n)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	req, err := binary.DecodeCompileBatch(frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The decode copies the comment out of the frame once and sizes the
	// key buffer from the frame; the loops themselves are small.
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(4*len(frame) + 1<<20); alloc > limit {
		t.Fatalf("decoding a %d-byte frame (%d instructions × %d copies referring to one %d-byte comment) allocated %d bytes, want at most %d",
			len(frame), len(l.Body), copies, len(comment), alloc, limit)
	}
	for i, f := range req.Distinct() {
		if f != 0 {
			t.Fatalf("item %d grouped with %d, want 0", i, f)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	tru := true
	_ = tru
	resp := &wire.CompileResponse{
		Hash: "abc123", Cached: true, Pipelined: true,
		Outcome: "pipelined", II: 4, Stages: 5, ResII: 3, RecII: 2,
		Backend: "exact", ProvenII: true,
		Reg: wire.RegStatsJSON{GR: 12, RotGR: 8, FR: 6, RotFR: 4, PR: 2, RotPR: 1, Spills: 0},
		Loads: []wire.LoadReportJSON{
			{ID: 1, Critical: true, BaseLat: 13, SchedLat: 200, ExtraD: 23, ClusterK: 4, Hint: "nt2"},
			{ID: 2, BaseLat: 5, SchedLat: 5, Hint: ""},
		},
		HLO:     &wire.HLOJSON{IIEst: 7, PrefetchesAdded: 2, HintsSet: 3},
		Listing: "L0:\n  ld8 r1 = [r2]\n", Diagram: "| S0 |",
	}
	got, err := binary.DecodeCompileResponse(binary.EncodeCompileResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("response round trip mismatch:\n%+v\n%+v", resp, got)
	}

	// Minimal response: zero-valued optionals stay zero-valued.
	minimal := &wire.CompileResponse{Hash: "h", Outcome: "sequential", II: 1, Stages: 1}
	got, err = binary.DecodeCompileResponse(binary.EncodeCompileResponse(nil, minimal))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(minimal, got) {
		t.Fatalf("minimal response round trip mismatch:\n%+v\n%+v", minimal, got)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resp := &wire.CompileBatchResponse{Items: []wire.BatchItemResult{
		{CompileResponse: &wire.CompileResponse{Hash: "h1", Outcome: "pipelined", II: 2, Stages: 3}},
		{Error: "compile: boom", ErrorCode: "internal", Retryable: true},
		{Error: "invalid loop", ErrorCode: "invalid_loop"},
	}}
	got, err := binary.DecodeCompileBatchResponse(binary.EncodeCompileBatchResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("batch response round trip mismatch:\n%+v\n%+v", resp, got)
	}
}

// TestFrameValidation: adversarial frames are rejected before any
// payload-sized allocation — truncation, surplus bytes, bad magic,
// unknown version, wrong kind, and absurd length prefixes.
func TestFrameValidation(t *testing.T) {
	l := workload.All()[0].Loops[0].Gen()
	frame, err := binary.EncodeCompileRequest(nil, l, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := binary.DecodeCompileRequest(frame[:len(frame)-3]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := binary.DecodeCompileRequest(append(bytes.Clone(frame), 0xAB)); err == nil {
		t.Fatal("oversized frame (trailing byte) accepted")
	}
	bad := bytes.Clone(frame)
	bad[0] = 'X'
	if _, err := binary.DecodeCompileRequest(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	ver := bytes.Clone(frame)
	ver[3] = 99
	if _, err := binary.DecodeCompileRequest(ver); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("future format version: got %v, want ErrVersion", err)
	}
	if _, err := binary.DecodeCompileBatch(frame); err == nil {
		t.Fatal("compile-request frame accepted as a batch frame")
	}
	if _, err := binary.DecodeCompileRequest(nil); err == nil {
		t.Fatal("empty input accepted")
	}

	// A length prefix claiming far more than the body carries must be
	// rejected cheaply: the declared payload length is checked against
	// the actual remaining bytes before anything is allocated.
	huge := []byte{'L', 'T', 'B', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := binary.DecodeCompileRequest(huge); err == nil {
			t.Fatal("absurd length prefix accepted")
		}
	})
	if allocs > 4 {
		t.Fatalf("rejecting an absurd length prefix allocated %.0f times", allocs)
	}

	if !binary.IsBinary(frame) {
		t.Fatal("IsBinary(frame) = false")
	}
	if binary.IsBinary([]byte(`{"v":1}`)) {
		t.Fatal("IsBinary(json) = true")
	}
}

// TestOversizedBodyRejectedEarly: a 1.4 MB frame declaring 200,000 add
// instructions, far over ir.MaxWireBody, is refused from its count with
// the same invalid-loop error the JSON encoding gets, and without
// decoding the instructions: the refusal allocates a small multiple of
// the frame, not the tens of megabytes the decoded body would take.
func TestOversizedBodyRejectedEarly(t *testing.T) {
	l := ir.NewLoop("huge")
	a, b := l.NewGR(), l.NewGR()
	for i := 0; i < 200_000; i++ {
		l.Append(ir.Add(a, a, b))
	}
	frame, err := binary.EncodeCompileRequest(nil, l, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jreq, err := wire.NewCompileRequest(l, ltsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, jerr := jreq.Decode()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, berr := binary.DecodeCompileRequest(frame)
	runtime.ReadMemStats(&after)

	var inv *ir.InvalidLoopError
	if !errors.As(berr, &inv) {
		t.Fatalf("binary decode of %d instructions: got %v, want *ir.InvalidLoopError", len(l.Body), berr)
	}
	if jerr == nil || berr.Error() != jerr.Error() {
		t.Fatalf("binary error %q, JSON error %v: want the same text", berr, jerr)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*len(frame)); got > bound {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes (bound %d)", len(frame), got, bound)
	}
}

// TestInternedStrings: repeated strings cost one table entry; a
// back-reference beyond the table is rejected.
func TestInternedStrings(t *testing.T) {
	resp := &wire.CompileResponse{
		Hash: "h", Outcome: "pipelined", II: 1, Stages: 1,
		Loads: []wire.LoadReportJSON{
			{ID: 1, Hint: "nt2"}, {ID: 2, Hint: "nt2"}, {ID: 3, Hint: "nt2"},
		},
	}
	frame := binary.EncodeCompileResponse(nil, resp)
	got, err := binary.DecodeCompileResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatal("interned round trip mismatch")
	}
	if n := bytes.Count(frame, []byte("nt2")); n != 1 {
		t.Fatalf("string %q appears %d times in the frame, want 1 (interning broken)", "nt2", n)
	}
}

// TestBackendFrameStability: the heuristic backend's canonical binary
// spelling is flag-absent, so frames from clients that predate the
// backend field are byte-identical to frames that spell it out — and
// both hash like a JSON request with no backend.
func TestBackendFrameStability(t *testing.T) {
	gen, _ := workload.IntCopyAdd(16)
	l := gen()
	bare, err := binary.EncodeCompileRequest(nil, l, wire.Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := binary.EncodeCompileRequest(nil, gen(), wire.Options{LatencyTolerant: true, Backend: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare, spelled) {
		t.Fatal("spelling out the heuristic backend changed the binary frame")
	}

	exact, err := binary.EncodeCompileRequest(nil, gen(), wire.Options{LatencyTolerant: true, Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bare, exact) {
		t.Fatal("exact backend not encoded in the binary frame")
	}
	req, err := binary.DecodeCompileRequest(exact)
	if err != nil {
		t.Fatal(err)
	}
	if req.Options.Backend != "exact" {
		t.Fatalf("backend lost in binary round trip: %q", req.Options.Backend)
	}
}
