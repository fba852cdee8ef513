package verify

import (
	"fmt"
	"math"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
)

// Backends is the cross-backend differential oracle: given two programs
// compiled from the same source loop by different scheduling backends
// (e.g. heuristic and exact), it first validates each against the
// reference semantics (Kernel), then executes both on identical memory
// images across the trip battery and reports the first divergence
// between them — final memory or live-out values. Two correct backends
// may produce different schedules, register assignments, and stage
// counts, but never different observable behavior.
func Backends(l *ir.Loop, a, b *interp.Program, cfg Config) error {
	if a == nil || b == nil {
		return fmt.Errorf("verify: nil program in backend cross-check")
	}
	if err := Kernel(l, a, cfg); err != nil {
		return fmt.Errorf("first backend: %w", err)
	}
	if err := Kernel(l, b, cfg); err != nil {
		return fmt.Errorf("second backend: %w", err)
	}
	trips := cfg.Trips
	if len(trips) == 0 {
		stages := a.Stages
		if b.Stages > stages {
			stages = b.Stages
		}
		trips = defaultTrips(stages)
	}
	for _, trip := range trips {
		if trip < 1 {
			continue
		}
		if err := crossTrip(l, a, b, trip, cfg); err != nil {
			return err
		}
	}
	return nil
}

func crossTrip(l *ir.Loop, a, b *interp.Program, trip int64, cfg Config) error {
	stages := a.Stages
	if b.Stages > stages {
		stages = b.Stages
	}
	base := initialMemory(l, trip, stages, cfg)
	memRef, memA, memB := base.Fork(), base.Fork(), base.Fork()

	// Data-terminated loops whose seeded inputs never reach the exit
	// condition are inconclusive for this trip, exactly as in Kernel.
	if _, err := runReference(l, trip, memRef); err == ErrUnterminated {
		return nil
	} else if err != nil {
		return fmt.Errorf("verify: reference execution failed: %w", err)
	}

	stA, err := interp.Run(a, trip, memA)
	if err != nil {
		return fmt.Errorf("verify: first backend execution failed: %w", err)
	}
	stB, err := interp.Run(b, trip, memB)
	if err != nil {
		return fmt.Errorf("verify: second backend execution failed: %w", err)
	}
	if err := compareMemory(stA.Mem, stB.Mem, trip); err != nil {
		return fmt.Errorf("backend divergence: %w", err)
	}
	for i := range l.LiveOut {
		src := l.LiveOut[i]
		switch src.Class {
		case ir.ClassFR:
			va, vb := stA.ReadRegF(a.LiveOut[i]), stB.ReadRegF(b.LiveOut[i])
			if math.Float64bits(va) != math.Float64bits(vb) {
				return fmt.Errorf("verify: trip %d: live-out %d (%s): backends diverge: %v vs %v",
					trip, i, src, va, vb)
			}
		default:
			va, vb := stA.ReadReg(a.LiveOut[i]), stB.ReadReg(b.LiveOut[i])
			if va != vb {
				return fmt.Errorf("verify: trip %d: live-out %d (%s): backends diverge: %d vs %d",
					trip, i, src, va, vb)
			}
		}
	}
	return nil
}
