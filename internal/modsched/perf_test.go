package modsched

import (
	"math/rand"
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

// perfLoop is a moderately sized random loop with its graph, latency
// policy and MinII.
func perfLoop(tb testing.TB) (*machine.Model, *ddg.Graph, ddg.LatencyFn, int) {
	m := machine.Itanium2()
	rng := rand.New(rand.NewSource(42))
	l := randomLoop(rng, 14)
	g, err := ddg.Build(l)
	if err != nil {
		tb.Fatal(err)
	}
	lat := func(in *ir.Instr) int {
		if in.Op.IsLoad() {
			return 13
		}
		return m.Latency(in.Op)
	}
	return m, g, lat, max(ResMII(m, l.Body), g.RecMII(lat))
}

// BenchmarkScheduleAtII measures one modulo-scheduling attempt on a
// moderately sized random loop — the unit of work the II search
// repeats. "minII" succeeds at MinII; "exhausted" fails one below it
// after spending the whole placement budget, as every attempt below the
// II a loop finally gets does.
func BenchmarkScheduleAtII(b *testing.B) {
	m, g, lat, ii := perfLoop(b)
	b.Run("minII", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ScheduleAtII(m, g, ii, lat, Options{}); !ok {
				b.Fatal("no schedule at MinII")
			}
		}
	})
	b.Run("exhausted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ScheduleAtII(m, g, ii-1, lat, Options{}); ok {
				b.Fatal("scheduled below MinII")
			}
		}
	})
}
