package verify

import (
	"fmt"
	"math"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
)

// Config parameterizes the differential oracle.
type Config struct {
	// Seed drives the deterministic memory image when InitMem is nil.
	Seed int64
	// Trips overrides the default trip-count set (which brackets the
	// stage count: 1, 2, S-1, S, S+1, 2S+3 and 17, so the short-trip
	// prolog/epilog-only paths are always exercised).
	Trips []int64
	// InitMem, when set, lays out the loop's data instead of the seeded
	// pseudo-random fill (workload models bring their own layouts).
	InitMem func(*interp.Memory)
}

// Kernel is the semantic differential oracle: it executes the source loop
// on the reference machine and the compiled program through internal/interp
// on identical memory images, for a battery of trip counts, and reports
// the first divergence in final memory or live-out values. It applies to
// pipelined and sequential programs alike.
//
// For data-terminated loops whose seeded inputs never reach the exit
// condition the trip is skipped (the comparison would depend on runaway
// caps, not semantics); if every trip is inconclusive Kernel returns nil,
// so a sampled production verification cannot raise a false alarm.
func Kernel(l *ir.Loop, p *interp.Program, cfg Config) error {
	if p == nil {
		return fmt.Errorf("verify: nil program")
	}
	if len(l.LiveOut) != len(p.LiveOut) {
		return fmt.Errorf("verify: %d live-outs in loop, %d in program", len(l.LiveOut), len(p.LiveOut))
	}
	trips := cfg.Trips
	if len(trips) == 0 {
		trips = defaultTrips(p.Stages)
	}
	for _, trip := range trips {
		if trip < 1 {
			continue
		}
		if err := compareTrip(l, p, trip, cfg); err != nil {
			return err
		}
	}
	return nil
}

func defaultTrips(stages int) []int64 {
	s := int64(stages)
	if s < 1 {
		s = 1
	}
	cand := []int64{1, 2, s - 1, s, s + 1, 2*s + 3, 17}
	seen := map[int64]bool{}
	var out []int64
	for _, t := range cand {
		if t >= 1 && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func compareTrip(l *ir.Loop, p *interp.Program, trip int64, cfg Config) error {
	base := initialMemory(l, trip, p.Stages, cfg)
	memA, memB := base.Fork(), base.Fork()

	ref, err := runReference(l, trip, memA)
	if err == ErrUnterminated {
		return nil // inconclusive for this trip; semantics not in question
	}
	if err != nil {
		return fmt.Errorf("verify: reference execution failed: %w", err)
	}
	st, err := interp.Run(p, trip, memB)
	if err != nil {
		return fmt.Errorf("verify: compiled execution failed: %w", err)
	}

	if err := compareMemory(ref.mem, st.Mem, trip); err != nil {
		return err
	}
	for i := range l.LiveOut {
		src, dst := l.LiveOut[i], p.LiveOut[i]
		switch src.Class {
		case ir.ClassFR:
			a, b := ref.readFR(src), st.ReadRegF(dst)
			if math.Float64bits(a) != math.Float64bits(b) {
				return fmt.Errorf("verify: trip %d: live-out %d (%s): reference %v, compiled %v",
					trip, i, src, a, b)
			}
		case ir.ClassPR:
			a := int64(0)
			if ref.readPR(src) {
				a = 1
			}
			if b := st.ReadReg(dst); a != b {
				return fmt.Errorf("verify: trip %d: live-out %d (%s): reference %d, compiled %d",
					trip, i, src, a, b)
			}
		default:
			a, b := ref.readGR(src), st.ReadReg(dst)
			if a != b {
				return fmt.Errorf("verify: trip %d: live-out %d (%s): reference %d, compiled %d",
					trip, i, src, a, b)
			}
		}
	}
	return nil
}

func compareMemory(a, b *interp.Memory, trip int64) error {
	snapA, snapB := a.Snapshot(), b.Snapshot()
	for pn, pa := range snapA {
		pb, ok := snapB[pn]
		if !ok {
			return fmt.Errorf("verify: trip %d: page %#x written only by the reference", trip, pn)
		}
		if pa != pb {
			off := 0
			for i := range pa {
				if pa[i] != pb[i] {
					off = i
					break
				}
			}
			return fmt.Errorf("verify: trip %d: memory differs at %#x (reference %#x, compiled %#x)",
				trip, pn+int64(off), pa[off], pb[off])
		}
	}
	for pn := range snapB {
		if _, ok := snapA[pn]; !ok {
			return fmt.Errorf("verify: trip %d: page %#x written only by the compiled program", trip, pn)
		}
	}
	return nil
}

// initialMemory lays out the image every machine of one trip starts from:
// cfg.InitMem's layout, or the seeded fill. Callers fork it per machine.
func initialMemory(l *ir.Loop, trip int64, stages int, cfg Config) *interp.Memory {
	m := interp.NewMemory()
	if cfg.InitMem != nil {
		cfg.InitMem(m)
	} else {
		fillMemory(l, trip, stages, cfg.Seed, m)
	}
	return m
}

// fillMemory lays out a deterministic pseudo-random image for every
// array the loop walks (any GR setup value that looks like a pointer),
// into mem. Values are kept small and frequently zero
// so that pointer-chase loads stay near the zero page and data-terminated
// conditions have a real chance to fire; arithmetic over the fill is still
// position-dependent, so schedule bugs that permute or drop accesses
// change the final image.
func fillMemory(l *ir.Loop, trip int64, stages int, seed int64, mem *interp.Memory) {
	stride := int64(8)
	down := false
	for _, in := range l.Body {
		if in.Mem == nil {
			continue
		}
		if pi := in.Mem.PostInc; pi != 0 {
			if pi < 0 {
				down = true
				pi = -pi
			}
			if pi > stride {
				stride = pi
			}
		}
	}
	span := (trip + int64(stages) + 16) * stride
	if span > 1<<20 {
		span = 1 << 20
	}
	for _, init := range l.Setup {
		if init.Reg.Class != ir.ClassGR || init.Val < 4096 {
			continue
		}
		start := init.Val
		if down {
			start -= span
		}
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(init.Val)
		for off := int64(0); off < 2*span; off += 8 {
			h = splitmix64(h)
			v := int64(h & 0xff)
			if h&0x300 == 0 {
				v = 0
			}
			mem.Store(start+off, 8, v)
		}
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
