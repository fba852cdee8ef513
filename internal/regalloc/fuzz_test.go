package regalloc_test

import (
	"math/rand"
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/regalloc"
)

// randomAllocLoop builds a random loop of n instructions over both data
// files: post-incremented loads, arithmetic, in-place accumulators,
// predicated defs and loop-carried live-ins. It then reads extra fresh
// invariants, which can push the static files past their size.
func randomAllocLoop(rng *rand.Rand, n, extra int) *ir.Loop {
	l := ir.NewLoop("fuzz")
	var grs, frs []ir.Reg
	invGR := func() ir.Reg {
		r := l.NewGR()
		l.Init(r, rng.Int63n(1<<16))
		return r
	}
	invFR := func() ir.Reg {
		r := l.NewFR()
		l.InitF(r, float64(rng.Intn(64)))
		return r
	}
	gr := func() ir.Reg {
		if len(grs) == 0 || rng.Intn(4) == 0 {
			return invGR()
		}
		return grs[rng.Intn(len(grs))]
	}
	fr := func() ir.Reg {
		if len(frs) == 0 || rng.Intn(4) == 0 {
			return invFR()
		}
		return frs[rng.Intn(len(frs))]
	}
	base := func(i int) ir.Reg {
		b := l.NewGR()
		l.Init(b, int64(0x100000+i*0x1000))
		return b
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			d := l.NewGR()
			l.Append(ir.Ld(d, base(i), 8, 8))
			grs = append(grs, d)
		case 1:
			d := l.NewFR()
			l.Append(ir.LdF(d, base(i), 8))
			frs = append(frs, d)
		case 2:
			d := l.NewGR()
			l.Append(ir.Add(d, gr(), gr()))
			grs = append(grs, d)
		case 3:
			d := l.NewFR()
			l.Append(ir.FMA(d, fr(), fr(), fr()))
			frs = append(frs, d)
		case 4:
			acc := l.NewFR()
			l.InitF(acc, 0)
			l.Append(ir.FAdd(acc, acc, fr()))
		case 5:
			p, q, d := l.NewPR(), l.NewPR(), l.NewGR()
			l.Append(ir.CmpLtI(p, q, gr(), 5))
			l.Append(ir.Predicated(p, ir.Add(d, gr(), gr())))
			grs = append(grs, d)
		default:
			// cur reads the previous iteration's next: a loop-carried
			// live-in with an initial value.
			cur, next := l.NewGR(), l.NewGR()
			l.Init(next, rng.Int63n(1<<16))
			l.Append(ir.Mov(cur, next))
			l.Append(ir.AddI(next, gr(), 8))
			grs = append(grs, cur, next)
		}
	}
	for k := 0; k < extra; k += 2 {
		if k%4 == 0 {
			l.Append(ir.Add(l.NewGR(), invGR(), invGR()))
		} else {
			l.Append(ir.FAdd(l.NewFR(), invFR(), invFR()))
		}
	}
	return l
}

// FuzzAllocate drives Allocate and the reference allocator over random
// loops and random modulo schedules, on the default register files and
// on shrunken rotating regions. Both must agree on the assignment or the
// error text, and the plan's static error must agree with both.
func FuzzAllocate(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(7), uint8(12), uint8(40), uint8(9), uint8(2), uint8(1))
	f.Add(int64(42), uint8(20), uint8(70), uint8(21), uint8(5), uint8(0))
	f.Add(int64(-3), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, sz, extra, boost, iiOff, rot uint8) {
		rng := rand.New(rand.NewSource(seed))
		l := randomAllocLoop(rng, int(sz%24)+1, int(extra%96))
		g, err := ddg.Build(l)
		if err != nil {
			t.Skip()
		}
		defer g.Release()
		m := machine.Itanium2()
		if rot%2 == 0 {
			m.RotGR, m.RotFR = 8+int(rot%24), 8+int(rot%24)
		}
		lat := func(in *ir.Instr) int {
			if in.Op.IsLoad() {
				return 1 + int(boost%22)
			}
			return m.Latency(in.Op)
		}
		ii := max(modsched.ResMII(m, l.Body), g.RecMII(lat), 1) + int(iiOff%8)
		s, ok := modsched.ScheduleAtII(m, g, ii, lat, modsched.Options{})
		if !ok {
			return
		}
		plan := regalloc.NewPlan(m, g)
		got, gotErr := plan.Allocate(s)
		want, wantErr := regalloc.AllocateRef(m, g, s)
		if d := sameAllocation(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("seed %d II=%d: %s", seed, ii, d)
		}
		switch {
		case staticFailure(wantErr) && (plan.StaticErr == nil || gotErr != plan.StaticErr):
			t.Fatalf("seed %d II=%d: reference fails on the static file (%v), plan static error %v",
				seed, ii, wantErr, plan.StaticErr)
		case plan.StaticErr != nil && wantErr == nil:
			t.Fatalf("seed %d II=%d: plan static error %v, but the reference allocated", seed, ii, plan.StaticErr)
		}
	})
}
