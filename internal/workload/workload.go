// Package workload models the paper's evaluation subjects. SPEC CPU2000
// and CPU2006 sources are not available, so each of the 55 benchmarks in
// the paper's figures is represented by a synthetic model: a set of hot
// pipelinable loops with the memory behaviour the paper attributes to that
// program (pointer chasing in 429.mcf, a low-trip-count motion-search loop
// in 464.h264ref, training/reference trip divergence in 177.mesa, ...),
// plus a fraction of execution time outside pipelined loops that the
// optimization cannot touch.
//
// All data layouts are deterministic (fixed-seed PRNG), so every
// experiment is bit-reproducible. Generators never use the global
// math/rand source: randomness always flows from an explicit seed through
// a *rand.Rand private to the invocation (see newRNG), so concurrent
// Gen/InitMem calls — e.g. parallel compile requests in the ltspd
// service — are race-free and reproducible.
//
// The suite tables are built once per process. Each loop's data image is
// laid out at most once, on its first NewMemory, and shared read-only by
// every copy of the spec; simulations run on copy-on-write forks of it.
package workload

import (
	"slices"
	"sync"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/profile"
)

// LoopSpec is one hot loop of a benchmark model.
type LoopSpec struct {
	// Name identifies the loop (e.g. "mcf.refresh_potential").
	Name string
	// Weight is the fraction of the benchmark's *baseline* cycles spent in
	// this loop. The weights of a benchmark's loops sum to its
	// LoopFraction.
	Weight float64
	// Train and Ref are the trip-count distributions on the training and
	// reference inputs. PGO sees Train; measurement runs execute Ref.
	Train, Ref profile.Distribution
	// Facts feed static trip estimation when PGO is off.
	Facts profile.StaticFacts
	// Gen builds a fresh copy of the loop IR (the HLO pass mutates it).
	Gen func() *ir.Loop
	// InitMem lays out the loop's data in a fresh memory image.
	InitMem func(*interp.Memory)
	// Cold marks loops whose data is evicted between executions (large
	// streaming working sets): every simulated execution starts with cold
	// caches. Loops with Cold false are measured warm (after one unmeasured
	// warm-up execution).
	Cold bool

	// image is the laid-out data NewMemory forks, shared by every copy of
	// a spec the suite tables built.
	image *image
}

// image is a loop's data image, laid out by init on first use.
type image struct {
	once sync.Once
	init func(*interp.Memory)
	mem  *interp.Memory
}

// NewMemory returns a memory holding the loop's data: a copy-on-write
// fork of an image laid out once per spec (with the InitMem the spec was
// built with) and shared read-only by every copy of it, so stores to the
// returned memory are private to it.
func (s *LoopSpec) NewMemory() *interp.Memory {
	im := s.image
	im.once.Do(func() {
		im.mem = interp.NewMemory()
		im.init(im.mem)
	})
	return im.mem.Fork()
}

// Benchmark models one SPEC program.
type Benchmark struct {
	// Name is the SPEC identifier, e.g. "429.mcf".
	Name string
	// Suite is "CPU2006" or "CPU2000".
	Suite string
	// Loops are the hot pipelinable loops. The remaining fraction
	// 1 - sum(Weight) of baseline time is outside pipelined loops and
	// identical under every compiler configuration.
	Loops []LoopSpec
}

// LoopFraction returns the fraction of baseline time inside the modeled
// loops.
func (b *Benchmark) LoopFraction() float64 {
	f := 0.0
	for i := range b.Loops {
		f += b.Loops[i].Weight
	}
	return f
}

// Suite names.
const (
	SuiteCPU2006 = "CPU2006"
	SuiteCPU2000 = "CPU2000"
)

// The suite tables, built once per process; CPU2006 and CPU2000 hand out
// copies that share the loops' data images.
var (
	cpu2006Table = sync.OnceValue(cpu2006)
	cpu2000Table = sync.OnceValue(cpu2000)
)

// CPU2006 returns the 29 CPU2006 benchmark models in the paper's figure
// order. The caller owns the returned values.
func CPU2006() []*Benchmark { return cloneSuite(cpu2006Table()) }

// CPU2000 returns the 26 CPU2000 benchmark models in the paper's figure
// order. The caller owns the returned values.
func CPU2000() []*Benchmark { return cloneSuite(cpu2000Table()) }

// cloneSuite copies a suite table deep enough that a caller may change any
// field of a benchmark or loop spec, trip distributions included, without
// touching another caller's copy. Gen, InitMem and the data image are
// shared.
func cloneSuite(table []*Benchmark) []*Benchmark {
	out := make([]*Benchmark, len(table))
	for i, b := range table {
		c := *b
		c.Loops = slices.Clone(b.Loops)
		for j := range c.Loops {
			l := &c.Loops[j]
			l.Train, l.Ref = slices.Clone(l.Train), slices.Clone(l.Ref)
		}
		out[i] = &c
	}
	return out
}

// All returns both suites.
func All() []*Benchmark {
	return append(CPU2006(), CPU2000()...)
}

// ByName returns the benchmark with the given name, or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}
