package ir_test

import (
	"bytes"
	"math"
	"testing"

	"ltsp/internal/ir"
	"ltsp/internal/workload"
)

// checkEncodeLoop holds AppendLoop to the reflective reference: the same
// bytes, or an error from both.
func checkEncodeLoop(t *testing.T, name string, l *ir.Loop) []byte {
	t.Helper()
	got, err := ir.EncodeLoop(l)
	want, refErr := ir.RefEncodeLoop(l)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the reference:\n  got:  %s\n  want: %s", name, got, want)
	}
	return got
}

// oddLoop carries what DecodeLoop never produces but an in-memory loop
// may: None in setup, live-outs and the while condition, an unknown
// register class, out-of-range stride and hint values, negative register
// numbers, and strings and floats that take encoding/json's special
// paths.
func oddLoop() *ir.Loop {
	l := ir.NewLoop("odd <&> \"name\"\x7f \xff")
	v := l.NewGR()
	ld := ir.Ld(v, ir.Reg{Class: ir.RegClass(9), N: -3}, 0, -8)
	ld.Mem.Stride, ld.Mem.Hint = ir.StrideKind(200), ir.Hint(77)
	ld.Comment = "tab\tnewline\n"
	l.Append(ld)
	f := l.NewFR()
	l.Append(ir.FMovI(f, 1e-7))
	l.Append(ir.FMovI(f, math.Copysign(0, -1)))
	l.Append(ir.FMovI(f, 1e21))
	l.Append(ir.FMovI(f, 999999999999999999999.0))
	l.Append(ir.FMovI(f, -1e-6))
	l.Append(ir.FMovI(f, 9.99e-7))
	l.Append(ir.CmpEqI(ir.None, ir.None, v, 0))
	l.Setup = []ir.RegInit{{Reg: ir.None, Val: -1, FVal: 2.5e-10}, {Reg: f}}
	l.LiveOut = []ir.Reg{ir.None, v}
	l.MemDeps = []ir.MemDep{{}, {From: -1, To: 3, Latency: -2}}
	l.While = &ir.WhileInfo{}
	return l
}

// TestAppendLoopMatchesReference compares AppendLoop with the reflective
// reference on every workload loop spec, the archetypes and oddLoop, and
// checks both refuse non-finite floats and unnamed opcodes.
func TestAppendLoopMatchesReference(t *testing.T) {
	for _, b := range workload.All() {
		for i := range b.Loops {
			checkEncodeLoop(t, b.Name+"/"+b.Loops[i].Name, b.Loops[i].Gen())
		}
	}
	for name, gen := range archetypeLoops() {
		checkEncodeLoop(t, name, gen())
	}
	checkEncodeLoop(t, "odd", oddLoop())
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := oddLoop()
		l.Body[1].FImm = f
		checkEncodeLoop(t, "non-finite fimm", l)
		l = oddLoop()
		l.Setup[1].FVal = f
		checkEncodeLoop(t, "non-finite fval", l)
	}
	l := oddLoop()
	l.Body[2].Op = ir.Op(250)
	checkEncodeLoop(t, "unnamed opcode", l)
}

// FuzzEncodeLoop holds AppendLoop to the reflective reference on every
// loop DecodeLoop accepts: the same bytes, a canonical round trip
// (Encode(Decode(Encode(l))) == Encode(l)), and an error, not bytes,
// once a float is NaN or infinite.
func FuzzEncodeLoop(f *testing.F) {
	for _, size := range []int64{16, 64, 4, 8} {
		gen, _ := workload.IntCopyAdd(size)
		data, err := ir.EncodeLoop(gen())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, gen := range archetypeLoops() {
		data, err := ir.EncodeLoop(gen())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":1,"name":"a<b>&\u0001 \ud800é","body":[{"op":"fmovi","dsts":["vf0"],"fimm":1e-7,"comment":"\"\\"}],"setup":[{"reg":"vf0","fval":-0}],"liveOut":["vf0"]}`))
	f.Add([]byte(`{"v":1,"body":[{"op":"cmp.eq.i","pred":"vp0","dsts":["-","vp0"],"srcs":["vr0"],"imm":-3}],"setup":[{"reg":"vp0","val":1}],"memDeps":[{"from":0,"to":0,"distance":1}],"while":{"cond":"vp0"}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ir.DecodeLoop(data)
		if err != nil {
			t.Skip()
		}
		enc := checkEncodeLoop(t, "decoded", l)
		dec, err := ir.DecodeLoop(enc)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, enc)
		}
		if again := checkEncodeLoop(t, "re-decoded", dec); !bytes.Equal(again, enc) {
			t.Fatalf("round trip not canonical:\n  first:  %s\n  second: %s", enc, again)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := l.Clone()
			c.Setup = append(c.Setup, ir.RegInit{Reg: ir.FR(2), FVal: bad})
			if _, err := ir.EncodeLoop(c); err == nil {
				t.Fatalf("setup fval %v encoded without error", bad)
			}
			if len(c.Body) > 0 {
				c = l.Clone()
				c.Body[0].FImm = bad
				if _, err := ir.EncodeLoop(c); err == nil {
					t.Fatalf("fimm %v encoded without error", bad)
				}
			}
		}
	})
}
