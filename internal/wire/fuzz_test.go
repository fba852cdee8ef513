package wire_test

import (
	"encoding/json"
	"testing"

	"ltsp"
	"ltsp/internal/wire"
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
