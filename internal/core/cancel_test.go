package core

import (
	"context"
	"errors"
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
)

// cancelLoop is a small pipelinable loop for the cancellation tests.
func cancelLoop() *ir.Loop {
	l := ir.NewLoop("cancel")
	v, bs, bd, r, k := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, bs, 4, 4)
	ld.Mem.Stride, ld.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(ld)
	l.Append(ir.Add(r, v, k))
	st := ir.St(bd, r, 4, 4)
	st.Mem.Stride, st.Mem.StrideBytes = ir.StrideUnit, 4
	l.Append(st)
	l.Init(bs, 0x100000)
	l.Init(bd, 0x200000)
	l.Init(k, 1)
	l.LiveOut = []ir.Reg{bs, bd}
	return l
}

// TestPipelineCtxPreCanceled: a context that is already done fails the
// compilation with the context's error before any II is attempted.
func TestPipelineCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PipelineCtx(ctx, cancelLoop(), Options{LatencyTolerant: true})
	if err == nil {
		t.Fatal("pre-canceled compile succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestPipelineCtxNilAndBackground: PipelineCtx with a nil or background
// context behaves exactly like Pipeline — cancellation is opt-in.
func TestPipelineCtxNilAndBackground(t *testing.T) {
	want, err := Pipeline(cancelLoop(), Options{LatencyTolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{
		"nil":        nil,
		"background": context.Background(),
	} {
		got, err := PipelineCtx(ctx, cancelLoop(), Options{LatencyTolerant: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.FinalII != want.FinalII || got.Stages != want.Stages {
			t.Fatalf("%s: II/stages = %d/%d, want %d/%d", name, got.FinalII, got.Stages, want.FinalII, want.Stages)
		}
	}
}

// TestSearchCancellationStopsClaiming: a cancellation observed by the
// search stops it from claiming candidate IIs. The searcher is driven
// directly so the cancellation point is deterministic: the context is
// canceled before the search starts, and the search must return
// not-done without attempting anything.
func TestSearchCancellationStopsClaiming(t *testing.T) {
	l := cancelLoop()
	m := machine.Itanium2()
	g, err := ddg.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	resII := modsched.ResMII(m, l.Body)
	baseLat := BaseLatFn(m)
	policy := Classify(m, g, resII, g.RecMII(baseLat), true, false)
	polLat := policy.LatFn()
	minII := resII
	if rec := g.RecMII(polLat); rec > minII {
		minII = rec
	}
	maxII := 2*minII + 16

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &search{
		l: l, m: m, g: g, policy: policy,
		polLat: polLat, baseLat: baseLat,
		minII: minII, maxII: maxII,
		haveBoost: true,
		schedule:  heuristicAtII,
	}
	if k := s.run(ctx, nil); k != nil || s.lastErr != nil {
		t.Fatalf("search under canceled ctx: kernel=%v err=%v, want none with no attempt error", k, s.lastErr)
	}
	if s.attempts != 0 {
		t.Fatalf("search claimed %d attempts after cancellation", s.attempts)
	}
}
