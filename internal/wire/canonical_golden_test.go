package wire_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"ltsp"
	"ltsp/internal/golden"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

const canonicalGoldenFile = "testdata/canonical_golden.txt"

// canonicalLoop is one loop the canonical-encoding fence pins.
type canonicalLoop struct {
	name string
	gen  func() *ir.Loop
}

// canonicalLoops returns every workload loop spec, the size-scaled
// archetypes (MultiStreamXor with 2-16 streams, RegPressureFP with 2-24
// lanes) and the in-memory edge loops.
func canonicalLoops() []canonicalLoop {
	var out []canonicalLoop
	for _, b := range workload.All() {
		for i := range b.Loops {
			out = append(out, canonicalLoop{b.Name + "/" + b.Loops[i].Name, b.Loops[i].Gen})
		}
	}
	for n := 2; n <= 16; n++ {
		gen, _ := workload.MultiStreamXor(n, 1024)
		out = append(out, canonicalLoop{fmt.Sprintf("archetype.multistreamxor-%d", n), gen})
	}
	for _, lanes := range []int{2, 4, 6, 8, 12, 16, 20, 24} {
		gen, _ := workload.RegPressureFP(lanes, 1024)
		out = append(out, canonicalLoop{fmt.Sprintf("archetype.regpressurefp-%d", lanes), gen})
	}
	return append(out,
		canonicalLoop{"edge.strings", edgeStringsLoop},
		canonicalLoop{"edge.floats", edgeFloatsLoop},
		canonicalLoop{"edge.memdeps", edgeMemDepsLoop},
		canonicalLoop{"edge.while", edgeWhileLoop},
	)
}

// edgeText mixes every string class the JSON encoder treats specially:
// HTML-escaped characters, quotes and backslashes, control characters,
// valid non-ASCII (including U+2028/U+2029), and invalid UTF-8.
const edgeText = "esc <b>&\"q\" \\ \x00\x01\x1f\t\n\r é ☃ \u2028\u2029 \xff\xfe\xc3 end"

func edgeStringsLoop() *ir.Loop {
	l := ir.NewLoop(edgeText)
	v, w := l.NewGR(), l.NewGR()
	mv := ir.MovI(v, -7)
	mv.Comment = edgeText
	l.Append(mv)
	add := ir.AddI(w, v, math.MinInt64)
	add.Comment = "plain ascii comment"
	l.Append(add)
	l.LiveOut = []ir.Reg{v, w}
	return l
}

// edgeFloats straddles encoding/json's switch between 'f' and 'e'
// formats and its e-0N exponent shortening; -0 is omitted like 0.
var edgeFloats = []float64{1e-7, 1e21, math.Copysign(0, -1), 0.1, 1e-6, 1e20,
	-2.5e-300, 5e-324, math.MaxFloat64, 123456789.125, -1e-9}

func edgeFloatsLoop() *ir.Loop {
	l := ir.NewLoop("floats")
	for _, f := range edgeFloats {
		d, acc := l.NewFR(), l.NewFR()
		l.Append(ir.FMovI(d, f))
		l.Append(ir.FAdd(acc, acc, d))
		l.InitF(acc, f)
		l.LiveOut = append(l.LiveOut, acc)
	}
	return l
}

func edgeMemDepsLoop() *ir.Loop {
	l := ir.NewLoop("deps")
	v, b, c, idx := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, b, 8, 8)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideSymbolic, -24
	ld.Mem.Hint = ir.HintL2
	ld.Mem.Delinquent, ld.Mem.Prefetched, ld.Mem.PrefetchDistance = true, true, 3
	ld.Mem.Group, ld.Mem.LineLeader = 2, true
	ld.Mem.IndexInit, ld.Mem.IndexStride, ld.Mem.IndexSize, ld.Mem.ScaleShift = 4096, -8, 4, 3
	ld.Mem.ArrayBase = idx
	l.Append(ld)
	st := ir.St(c, v, 8, 8)
	st.Mem.Stride, st.Mem.Hint = ir.StrideIndirect, ir.HintL3
	l.Append(st)
	l.Init(b, 0x100000)
	l.Init(c, 0x200000)
	l.Init(idx, 0x300000)
	l.MemDeps = []ir.MemDep{
		{From: 1, To: 0, Distance: 1, Latency: 1, MayAlias: true},
		{From: 0, To: 1},
		{From: 1, To: 1, Distance: 2},
	}
	l.LiveOut = []ir.Reg{b, c}
	return l
}

func edgeWhileLoop() *ir.Loop {
	l := ir.NewLoop("while")
	pv := l.NewPR()
	next, cur := l.NewGR(), l.NewGR()
	l.Append(ir.Predicated(pv, ir.Mov(cur, next)))
	chase := ir.Ld(next, cur, 8, 0)
	chase.Mem.Stride = ir.StridePointerChase
	l.Append(ir.Predicated(pv, chase))
	l.Append(ir.Predicated(pv, ir.CmpEqI(ir.None, pv, next, 0)))
	l.While = &ir.WhileInfo{Cond: pv}
	l.Init(pv, 1)
	l.Init(next, 0x100000)
	return l
}

// canonicalOptions are the option points the service sees most: the
// default, an ltsp-bench -server sweep's, an ltsp -server session's, and
// the exact backend with pipelining forced off.
func canonicalOptions() []struct {
	name string
	opts ltsp.Options
} {
	off := false
	return []struct {
		name string
		opts ltsp.Options
	}{
		{"default", ltsp.Options{}},
		{"sweep", ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000}},
		{"cli", ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, BoostDelinquent: true, TripEstimate: 100}},
		{"exact-nopipe", ltsp.Options{Backend: "exact", Pipeline: &off}},
	}
}

// TestCanonicalGolden fences the canonical request encoding, and so
// every artifact hash: each (loop, options) point's Decode().Canonical
// length and sha256 must match testdata/canonical_golden.txt byte for
// byte. Run with -update to rewrite the file after an intended change,
// which also changes the wire format's hashes (see ir.WireVersion).
func TestCanonicalGolden(t *testing.T) {
	var rows []golden.Row
	for _, src := range canonicalLoops() {
		for _, o := range canonicalOptions() {
			key := src.name + "|" + o.name
			req, err := wire.NewCompileRequest(src.gen(), o.opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			d, err := req.Decode()
			if err != nil {
				t.Fatalf("%s: decode: %v", key, err)
			}
			rows = append(rows, golden.Row{
				Key:    key,
				Fields: []golden.Field{golden.F("len", len(d.Canonical))},
				Digest: fmt.Sprintf("%x", sha256.Sum256(d.Canonical)),
			})
		}
	}
	golden.Check(t, canonicalGoldenFile, rows)
}
