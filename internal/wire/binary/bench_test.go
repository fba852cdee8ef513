package binary_test

import (
	"encoding/json"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
	"ltsp/internal/workload"
)

// The decode suite measures bytes → validated request (envelope parsed,
// loop decoded and semantically validated, options checked) over every
// loop of the 55 workload models — the exact work the serving path does
// before a cache lookup can even be keyed. cmd/benchguard gates the
// JSON/binary ratio (≥5x) using the same definitions.

type decodeCorpus struct {
	jsonBodies [][]byte
	binBodies  [][]byte
	jsonBytes  int64
	binBytes   int64
}

func buildCorpus(tb testing.TB) *decodeCorpus {
	c := &decodeCorpus{}
	for _, b := range workload.All() {
		for _, spec := range b.Loops {
			l := spec.Gen()
			req, err := wire.NewCompileRequest(l, ltsp.Options{Prefetch: true, LatencyTolerant: true})
			if err != nil {
				tb.Fatal(err)
			}
			j, err := json.Marshal(req)
			if err != nil {
				tb.Fatal(err)
			}
			frame, err := binary.EncodeCompileRequest(nil, l, req.Options)
			if err != nil {
				tb.Fatal(err)
			}
			c.jsonBodies = append(c.jsonBodies, j)
			c.binBodies = append(c.binBodies, frame)
			c.jsonBytes += int64(len(j))
			c.binBytes += int64(len(frame))
		}
	}
	return c
}

func BenchmarkDecodeJSON(b *testing.B) {
	c := buildCorpus(b)
	b.ReportAllocs()
	b.SetBytes(c.jsonBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range c.jsonBodies {
			var req wire.CompileRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			l, err := ir.DecodeLoop(req.Loop)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := req.Options.ToOptions(); err != nil {
				b.Fatal(err)
			}
			benchSink = l
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	c := buildCorpus(b)
	b.ReportAllocs()
	b.SetBytes(c.binBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range c.binBodies {
			req, err := binary.DecodeCompileRequest(body)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := req.Options.ToOptions(); err != nil {
				b.Fatal(err)
			}
			benchSink = req
		}
	}
}

var benchSink any

func BenchmarkEncodeBinary(b *testing.B) {
	c := buildCorpus(b)
	loops := make([]*ir.Loop, 0, len(c.binBodies))
	for _, bm := range workload.All() {
		for _, spec := range bm.Loops {
			loops = append(loops, spec.Gen())
		}
	}
	b.ReportAllocs()
	b.SetBytes(c.binBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			frame, err := binary.EncodeCompileRequest(nil, l, wire.Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = frame
		}
	}
}
