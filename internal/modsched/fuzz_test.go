package modsched

import (
	"math/rand"
	"testing"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
)

// FuzzScheduleAtII drives the iterative modulo scheduler over random
// loops with fuzzed sizes, load latencies and II offsets, from three
// below MinII (where an attempt exhausts its budget) to seven above.
// Three properties must hold for any input: ScheduleAtII never panics,
// it agrees with the reference scheduler (scheduleAtIIRef) on the
// outcome, every placement and the attempt and eviction counts, and
// every schedule it returns passes full dependence/resource/distance
// validation.
// (This lives in the internal package because verify imports modsched;
// the independent verifier gets its own fuzz target in internal/verify.)
func FuzzScheduleAtII(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0))
	f.Add(int64(7), uint8(9), uint8(11), uint8(3))
	f.Add(int64(42), uint8(13), uint8(21), uint8(7))
	f.Add(int64(-3), uint8(255), uint8(255), uint8(255))
	m := machine.Itanium2()
	f.Fuzz(func(t *testing.T, seed int64, sz, boost, iiOff uint8) {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(rng, int(sz%14)+2)
		g, err := ddg.Build(l)
		if err != nil {
			t.Skip()
		}
		lat := func(in *ir.Instr) int {
			if in.Op.IsLoad() {
				return 1 + int(boost%22)
			}
			return m.Latency(in.Op)
		}
		minII := ResMII(m, l.Body)
		if r := g.RecMII(lat); r > minII {
			minII = r
		}
		ii := minII - 3 + int(iiOff%11)
		if ii < 1 {
			ii = 1
		}
		if d := sameAsRef(m, g, ii, lat); d != "" {
			t.Fatalf("seed %d sz %d boost %d ii %d: %s", seed, sz, boost, ii, d)
		}
		s, ok := ScheduleAtII(m, g, ii, lat, Options{})
		if !ok {
			return
		}
		if err := s.Validate(m, g, lat); err != nil {
			t.Fatalf("seed %d sz %d boost %d ii %d: returned schedule fails validation: %v",
				seed, sz, boost, ii, err)
		}
	})
}
