package binary_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"ltsp"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// FuzzWireCodecEquivalence is the differential oracle between the two
// wire codecs: any compile request the JSON path accepts must survive
// JSON → struct → binary → struct with a deeply equal loop, identical
// canonicalized options, and the identical artifact hash. The seed
// corpus is every loop of all 55 workload models plus adversarial
// envelopes; the fuzzer then mutates the JSON freely.
func FuzzWireCodecEquivalence(f *testing.F) {
	for _, b := range workload.All() {
		for i, spec := range b.Loops {
			opts := ltsp.Options{}
			switch i % 3 {
			case 0:
				opts = ltsp.Options{Prefetch: true, LatencyTolerant: true, TripEstimate: 100}
			case 1:
				opts = ltsp.Options{Backend: ltsp.BackendExact, LatencyTolerant: true}
			}
			req, err := wire.NewCompileRequest(spec.Gen(), opts)
			if err != nil {
				continue
			}
			data, err := json.Marshal(req)
			if err != nil {
				continue
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"x","body":[{"op":"fma","dsts":["vf0"],"srcs":["vf0","vf1","vf2"]}]},"options":{"mode":"hlo"}}`))
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"","body":[]},"options":{"pipeline":false,"tripEstimate":-0.0}}`))
	f.Add([]byte(`{"v":2,"loop":{}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"b","body":[{"op":"add","dsts":["vr0"],"srcs":["vr0","vr1"]}]},"options":{"backend":"oracle"}}`))
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"b","body":[{"op":"add","dsts":["vr0"],"srcs":["vr0","vr1"]}]},"options":{"backend":"heuristic"}}`))
	f.Add([]byte(`{"v":1,"loop":{"v":1,"name":"b","body":[]},"options":{"backend":"simplex"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var req wire.CompileRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		jd, err := req.Decode()
		if err != nil {
			// The JSON path rejects this request (bad version, invalid
			// loop, invalid options) — nothing to compare.
			return
		}
		frame, err := binary.EncodeCompileRequest(nil, jd.Loop, req.Options)
		if err != nil {
			t.Fatalf("JSON-accepted request rejected by the binary encoder: %v", err)
		}
		breq, err := binary.DecodeCompileRequest(frame)
		if err != nil {
			t.Fatalf("binary round trip rejected its own encoding: %v", err)
		}
		bd, err := breq.Decode()
		if err != nil {
			t.Fatalf("binary-decoded request does not decode: %v", err)
		}
		if bd.Hash != jd.Hash {
			t.Fatalf("artifact hash depends on transfer encoding: json %s binary %s", jd.Hash, bd.Hash)
		}
		if !reflect.DeepEqual(jd.Loop, bd.Loop) {
			t.Fatalf("loop differs after binary round trip:\njson: %+v\nbin:  %+v", jd.Loop, bd.Loop)
		}
	})
}
