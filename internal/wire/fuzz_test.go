package wire_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// FuzzCompileLoop throws arbitrary bytes at the full wire path — JSON
// decode, loop decode with semantic validation, option parsing, and the
// compiler itself with verification enabled. Malformed input must come
// back as an error; any panic is a finding. This is the service's actual
// attack surface: every byte here is reachable from an HTTP body.
func FuzzCompileLoop(f *testing.F) {
	for _, s := range []struct {
		size int64
		opts ltsp.Options
	}{
		{16, ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 100}},
		{64, ltsp.Options{LatencyTolerant: true}},
		{4, ltsp.Options{}},
		{8, ltsp.Options{Backend: ltsp.BackendExact}},
		{8, ltsp.Options{Backend: ltsp.BackendOracle, LatencyTolerant: true}},
	} {
		gen, _ := workload.IntCopyAdd(s.size)
		req, err := wire.NewCompileRequest(gen(), s.opts)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"loop":{}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"b","body":[{"op":"add","dsts":["vr0"],"srcs":["vr0","vr1"]}]},"options":{"backend":"simplex"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req wire.CompileRequest
		if err := json.Unmarshal(data, &req); err != nil {
			t.Skip()
		}
		d, err := req.Decode()
		if err != nil {
			return
		}
		d.Options.Verify = true
		_, _ = ltsp.Compile(d.Loop, d.Options) // errors are fine; panics are crashes
	})
}

// FuzzBatchDistinct builds batches from a small pool of loops and
// options, in JSON and in binary, and checks CompileBatchRequest.Distinct:
// the items of one group decode alike (the same canonical bytes and
// hash, or the same error), and exact copies are always grouped. Each
// input byte picks one item's loop and options. The JSON pool spells
// one loop twice (compact and indented) and the default options four
// ways; the binary pool carries one loop as two pointers and forced
// pipelining through two pointers, which an exact copy must not tell
// apart.
func FuzzBatchDistinct(f *testing.F) {
	var loops []*ir.Loop
	var jsonLoops [][]byte
	for _, size := range []int64{4, 8} {
		gen, _ := workload.IntCopyAdd(size)
		l := gen()
		data, err := ir.EncodeLoop(l)
		if err != nil {
			f.Fatal(err)
		}
		loops = append(loops, l)
		jsonLoops = append(jsonLoops, data)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, jsonLoops[0], "", "  "); err != nil {
		f.Fatal(err)
	}
	jsonLoops = append(jsonLoops, indented.Bytes(), []byte(`{"v":1,"name":"empty","body":[]}`))
	jsonOpts := []string{`{}`, `{"mode":"none"}`, `{"mode":""}`, `{"tripEstimate":0}`,
		`{"mode":"hlo","prefetch":true,"tripEstimate":100}`, `{"pipeline":true}`, `{"pipeline":false}`, `{"mode":"warp"}`}

	// Binary pool entries of one class are exact copies of each other.
	on1, on2, off := true, true, false
	binLoops := []*ir.Loop{loops[0], loops[1], loops[0].Clone()}
	binLoopClass := []int{0, 1, 0}
	binOpts := []wire.Options{{}, {Mode: "none"}, {Mode: "hlo", Prefetch: true, TripEstimate: 100},
		{Pipeline: &on1}, {Pipeline: &on2}, {Pipeline: &off}}
	binOptClass := []int{0, 1, 2, 3, 3, 4}

	for _, seed := range []string{"\x00\x00", "\x00\x02\x04\x00", "\x05\x11\x05\x21\x03\x03", "\x0a\x1e\x0a\x1e\x1f\x0b"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16 {
			data = data[:16]
		}
		if len(data) == 0 {
			t.Skip()
		}
		// JSON: the server decodes the body into the request, so the
		// items carry their loop bytes exactly as spelled.
		body := []byte(`{"v":1,"items":[`)
		jsonClass := make([]int, len(data))
		for i, b := range data {
			li, oi := int(b)%len(jsonLoops), int(b)/len(jsonLoops)%len(jsonOpts)
			jsonClass[i] = li*len(jsonOpts) + oi
			if i > 0 {
				body = append(body, ',')
			}
			body = append(append(append(body, `{"loop":`...), jsonLoops[li]...), `,"options":`...)
			body = append(append(body, jsonOpts[oi]...), '}')
		}
		body = append(body, "]}"...)
		var req wire.CompileBatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("batch body does not decode: %v\n%s", err, body)
		}
		checkDistinct(t, "json", &req, jsonClass)

		// Binary: the same picks from the binary pool.
		bl := make([]*ir.Loop, len(data))
		bo := make([]wire.Options, len(data))
		binClass := make([]int, len(data))
		for i, b := range data {
			li, oi := int(b)%len(binLoops), int(b)/len(binLoops)%len(binOpts)
			bl[i], bo[i] = binLoops[li], binOpts[oi]
			binClass[i] = binLoopClass[li]*len(binOpts) + binOptClass[oi]
		}
		frame, err := binary.EncodeCompileBatch(nil, bl, bo)
		if err != nil {
			t.Fatal(err)
		}
		breq, err := binary.DecodeCompileBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		checkDistinct(t, "binary", breq, binClass)
	})
}

// checkDistinct checks req's grouping: items of the same class (exact
// copies) share a group, and every item of a group decodes like the
// group's first item.
func checkDistinct(t *testing.T, enc string, req *wire.CompileBatchRequest, class []int) {
	t.Helper()
	first := req.Distinct()
	if len(first) != len(req.Items) {
		t.Fatalf("%s: Distinct returned %d entries for %d items", enc, len(first), len(req.Items))
	}
	firstOfClass := map[int]int{}
	for i, f := range first {
		if f > i || first[f] != f {
			t.Fatalf("%s: item %d grouped under %d, which is not an earlier group's first item", enc, i, f)
		}
		if g, ok := firstOfClass[class[i]]; !ok {
			firstOfClass[class[i]] = f
		} else if g != f {
			t.Fatalf("%s: exact copies %d and %d fall in groups %d and %d", enc, g, i, g, f)
		}
		if f == i {
			continue
		}
		di, ei := req.Item(i).Decode()
		df, ef := req.Item(f).Decode()
		switch {
		case (ei == nil) != (ef == nil):
			t.Fatalf("%s: item %d decodes with error %v, its group's first item %d with %v", enc, i, ei, f, ef)
		case ei != nil && ei.Error() != ef.Error():
			t.Fatalf("%s: items %d and %d of one group fail differently: %v vs %v", enc, i, f, ei, ef)
		case ei == nil && (di.Hash != df.Hash || !bytes.Equal(di.Canonical, df.Canonical)):
			t.Fatalf("%s: items %d and %d of one group hash %s and %s", enc, i, f, di.Hash, df.Hash)
		}
	}
}
