package ir_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"ltsp"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/workload"
)

// archetypeLoops returns one generator per workload archetype, covering
// every IR feature the wire format must carry: counted and while loops,
// predication, FP, indirect-gather metadata, symbolic strides, and the
// if-converted diamond.
func archetypeLoops() map[string]func() *ir.Loop {
	m := map[string]func() *ir.Loop{}
	add := func(name string) func(gen func() *ir.Loop, initMem func(*interp.Memory)) {
		return func(gen func() *ir.Loop, _ func(*interp.Memory)) { m[name] = gen }
	}
	add("IntCopyAdd")(workload.IntCopyAdd(1024))
	add("FPDaxpy")(workload.FPDaxpy(1024))
	add("FPReduction")(workload.FPReduction(1024))
	add("PointerChase")(workload.PointerChase(512, 7))
	add("WhileChase")(workload.WhileChase(512, 100, 7))
	add("IndirectGather")(workload.IndirectGather(256, 1024, false, 11))
	add("IndirectGatherFP")(workload.IndirectGather(256, 1024, true, 11))
	add("LowTripSAD")(workload.LowTripSAD(16))
	add("MultiStreamXor")(workload.MultiStreamXor(4, 1024))
	add("RegPressureFP")(workload.RegPressureFP(6, 1024))
	add("SymbolicStrideFP")(workload.SymbolicStrideFP(1024, 40))
	add("PointerChaseBranchy")(workload.PointerChaseBranchy(512, 7))
	return m
}

// TestLoopRoundTripArchetypes: encode → decode → re-encode must be
// byte-identical (so the content hash agrees), and the decoded loop must
// compile to the same II/stage structure as the original.
func TestLoopRoundTripArchetypes(t *testing.T) {
	opts := ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 100}
	for name, gen := range archetypeLoops() {
		t.Run(name, func(t *testing.T) {
			orig := gen()
			enc, err := ir.EncodeLoop(orig)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := ir.DecodeLoop(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			enc2, err := ir.EncodeLoop(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encode differs:\n  first:  %s\n  second: %s", enc, enc2)
			}
			// The decoded loop must be the same compilation input: HLO +
			// pipeliner must reach the identical II/stage structure. Compile
			// mutates its input, so each side gets its own copy.
			c1, err1 := ltsp.Compile(gen(), opts)
			c2, err2 := ltsp.Compile(dec, opts)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("compile divergence: original err=%v, decoded err=%v", err1, err2)
			}
			if err1 != nil {
				return
			}
			if c1.Pipelined != c2.Pipelined || c1.II != c2.II || c1.Stages != c2.Stages ||
				c1.ResII != c2.ResII || c1.RecII != c2.RecII {
				t.Fatalf("compiled structure differs: original (pipelined=%v II=%d stages=%d resII=%d recII=%d), decoded (pipelined=%v II=%d stages=%d resII=%d recII=%d)",
					c1.Pipelined, c1.II, c1.Stages, c1.ResII, c1.RecII,
					c2.Pipelined, c2.II, c2.Stages, c2.ResII, c2.RecII)
			}
			if c1.Program.Listing() != c2.Program.Listing() {
				t.Fatalf("kernel listing differs after round trip")
			}
		})
	}
}

// TestLoopRoundTripAllBenchmarkLoops byte-round-trips every loop of every
// benchmark model in both SPEC suites.
func TestLoopRoundTripAllBenchmarkLoops(t *testing.T) {
	for _, b := range workload.All() {
		for i := range b.Loops {
			spec := b.Loops[i]
			l := spec.Gen()
			enc, err := ir.EncodeLoop(l)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", b.Name, spec.Name, err)
			}
			dec, err := ir.DecodeLoop(enc)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", b.Name, spec.Name, err)
			}
			enc2, err := ir.EncodeLoop(dec)
			if err != nil {
				t.Fatalf("%s/%s: re-encode: %v", b.Name, spec.Name, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s/%s: re-encode differs", b.Name, spec.Name)
			}
		}
	}
}

// TestLoopRoundTripMemDeps covers the MemDeps and While fields that the
// workload generators exercise only sparsely.
func TestLoopRoundTripMemDeps(t *testing.T) {
	l := ir.NewLoop("deps")
	v, b, c := l.NewGR(), l.NewGR(), l.NewGR()
	l.Append(ir.Ld(v, b, 8, 8))
	l.Append(ir.St(c, v, 8, 8))
	l.MemDeps = []ir.MemDep{
		{From: 1, To: 0, Distance: 1, Latency: 1, MayAlias: true},
		{From: 0, To: 1},
	}
	enc, err := ir.EncodeLoop(l)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.DecodeLoop(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.MemDeps) != 2 || dec.MemDeps[0] != l.MemDeps[0] || dec.MemDeps[1] != l.MemDeps[1] {
		t.Fatalf("MemDeps lost: %+v", dec.MemDeps)
	}
	enc2, err := ir.EncodeLoop(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode differs")
	}
}

// TestDecodeLoopRejects checks version and operand validation.
func TestDecodeLoopRejects(t *testing.T) {
	cases := map[string]string{
		"wrong version": `{"v":99,"body":[]}`,
		"unknown op":    `{"v":1,"body":[{"op":"frobnicate"}]}`,
		"bad register":  `{"v":1,"body":[{"op":"add","dsts":["q7"]}]}`,
		"unknown field": `{"v":1,"body":[],"extra":1}`,
	}
	for name, data := range cases {
		if _, err := ir.DecodeLoop([]byte(data)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestDecodeRestoresVirtualCounters: passes that allocate fresh virtual
// registers on a decoded loop must not collide with existing operands.
func TestDecodeRestoresVirtualCounters(t *testing.T) {
	gen, _ := workload.IntCopyAdd(64)
	orig := gen()
	enc, err := ir.EncodeLoop(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.DecodeLoop(enc)
	if err != nil {
		t.Fatal(err)
	}
	fresh := dec.NewGR()
	for _, in := range dec.Body {
		for _, r := range append(in.AllDefs(), in.AllUses()...) {
			if r == fresh {
				t.Fatalf("fresh register %v collides with body operand", fresh)
			}
		}
	}
}

// TestDecodeLoopBodyLimit: DecodeLoop counts the body before decoding
// it. An indented archetype and a body of exactly MaxWireBody
// instructions whose comments hold separators, brackets and escaped
// quotes decode to the same loop; one instruction more is refused with
// the body-length *InvalidLoopError under every spelling of the key
// that encoding/json matches to the body, before a single instruction
// is decoded.
func TestDecodeLoopBodyLimit(t *testing.T) {
	long := func(n int) *ir.Loop {
		l := ir.NewLoop("long")
		v, b := l.NewGR(), l.NewGR()
		l.Init(v, 0)
		l.Init(b, 1)
		for i := 0; i < n; i++ {
			w := l.NewGR()
			in := ir.Add(w, v, b)
			in.Comment = `a, "b" ], [ {c}`
			l.Append(in)
			v = w
		}
		return l
	}
	enc, err := ir.EncodeLoop(archetypeLoops()["MultiStreamXor"]())
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, enc, "", "\t"); err != nil {
		t.Fatal(err)
	}
	maxBody, err := ir.EncodeLoop(long(ir.MaxWireBody))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"indented": indented.Bytes(), "max body": maxBody} {
		dec, err := ir.DecodeLoop(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, data); err != nil {
			t.Fatal(err)
		}
		if got, err := ir.EncodeLoop(dec); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: re-encode differs (err %v)", name, err)
		}
	}

	over, err := ir.EncodeLoop(long(ir.MaxWireBody + 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"body"`, `"BODY"`, `"bod\u0079"`} {
		data := bytes.Replace(over, []byte(`"body"`), []byte(key), 1)
		_, err = ir.DecodeLoop(data)
		var inv *ir.InvalidLoopError
		if !errors.As(err, &inv) || err.Error() != "ir: invalid loop: body has 4097 instructions (limit 4096)" {
			t.Fatalf("decode of MaxWireBody+1 instructions under %s: %v, want the body-length *InvalidLoopError", key, err)
		}
		if n := testing.AllocsPerRun(1, func() { ir.DecodeLoop(data) }); n > 10 {
			t.Errorf("refusing MaxWireBody+1 instructions under %s took %v allocations, want the body counted before it is decoded", key, n)
		}
	}
}
