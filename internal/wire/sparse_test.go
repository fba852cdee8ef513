package wire_test

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
	"ltsp/internal/workload"
)

// spreadIDs rewrites every virtual register id of the loop: id 0 stays,
// the largest becomes top and the rest keep their distance below it, so
// the order of ids within a class is unchanged.
func spreadIDs(l *ir.Loop, top int) {
	maxID := map[ir.RegClass]int{}
	visit := func(f func(*ir.Reg)) {
		for _, in := range l.Body {
			f(&in.Pred)
			for i := range in.Dsts {
				f(&in.Dsts[i])
			}
			for i := range in.Srcs {
				f(&in.Srcs[i])
			}
			if in.Mem != nil {
				f(&in.Mem.ArrayBase)
			}
		}
		for i := range l.Setup {
			f(&l.Setup[i].Reg)
		}
		for i := range l.LiveOut {
			f(&l.LiveOut[i])
		}
		if l.While != nil {
			f(&l.While.Cond)
		}
	}
	visit(func(r *ir.Reg) {
		if r.Virtual {
			maxID[r.Class] = max(maxID[r.Class], r.N)
		}
	})
	visit(func(r *ir.Reg) {
		if r.Virtual && r.N > 0 {
			r.N = top - (maxID[r.Class] - r.N)
		}
	})
}

// compileWire sends the loop through the wire codec and compiles the
// decoded loop, returning the result and the bytes the compile allocated.
func compileWire(t *testing.T, l *ir.Loop, o ltsp.Options) (*ltsp.Compiled, uint64) {
	t.Helper()
	req, err := wire.NewCompileRequest(l, o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back wire.CompileRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	d, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := ltsp.Compile(d.Loop, d.Options)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return c, after.TotalAlloc - before.TotalAlloc
}

// TestSparseVirtualIDsCompile compiles loops whose virtual register ids
// include 0 and the largest id the wire admits. The compiler's register
// tables must grow with what the loop names, not with its largest id,
// and the result must equal that of the same loop with compact ids.
func TestSparseVirtualIDsCompile(t *testing.T) {
	const top = 1 << 20 // the wire's virtual id limit
	gens := map[string]func() *ir.Loop{}
	gens["intcopyadd"], _ = workload.IntCopyAdd(64)
	gens["regpressurefp-8"], _ = workload.RegPressureFP(8, 1024)
	gens["multistreamxor-6"], _ = workload.MultiStreamXor(6, 1024)
	gens["whilechase"], _ = workload.WhileChase(64, 8, 1)
	gens["indirectgather"], _ = workload.IndirectGather(256, 1024, true, 1)
	opts := ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000}
	for name, gen := range gens {
		sparse := gen()
		spreadIDs(sparse, top)
		got, gotBytes := compileWire(t, sparse, opts)
		want, wantBytes := compileWire(t, gen(), opts)
		t.Logf("%s: %d bytes with ids up to %d, %d compact", name, gotBytes, top, wantBytes)
		// A table indexed by id would take megabytes; allow the sparse
		// loop what the compact one takes plus a little for sorting.
		if gotBytes > 2*wantBytes+64<<10 {
			t.Errorf("%s: compile allocated %d bytes, %d with compact ids", name, gotBytes, wantBytes)
		}
		if got.Pipelined != want.Pipelined || got.II != want.II || got.Stages != want.Stages || got.Reg != want.Reg {
			t.Errorf("%s: pipelined %t II %d stages %d regs %+v, compact ids: %t %d %d %+v", name,
				got.Pipelined, got.II, got.Stages, got.Reg, want.Pipelined, want.II, want.Stages, want.Reg)
		}
		if g, w := got.Program.Listing(), want.Program.Listing(); g != w {
			t.Errorf("%s: program differs from compact ids:\n%s\nwant:\n%s", name, g, w)
		}
		if !reflect.DeepEqual(got.Program.Setup, want.Program.Setup) || !reflect.DeepEqual(got.Program.LiveOut, want.Program.LiveOut) {
			t.Errorf("%s: setup or live-outs differ from compact ids", name)
		}
	}
}
