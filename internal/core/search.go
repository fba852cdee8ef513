package core

import (
	"ltsp/internal/ddg"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
	"ltsp/internal/regalloc"
	"ltsp/internal/sched"
)

// kernelPayload carries the compiled artifacts of one completed attempt
// through the scheduler-agnostic search as sched.Candidate.Payload.
type kernelPayload struct {
	prog   *interp.Program
	asn    *regalloc.Assignment
	unroll int
	loads  []LoadReport
}

// finisher runs the post-scheduling pipeline — register allocation and
// kernel generation — on a schedule the backend produced. Every field is
// read-only during the search: allocation and code generation never
// mutate the loop, graph, machine model, or policy, so an attempt at a
// given II always produces the same kernel.
type finisher struct {
	l *ir.Loop
	m *machine.Model
	g *ddg.Graph
	// plan is the rotating allocator's schedule-independent plan, shared
	// by every attempt; nil for NoRotation kernels.
	plan    *regalloc.Plan
	policy  *Policy
	polLat  ddg.LatencyFn
	baseLat ddg.LatencyFn
}

// finish allocates registers and generates the kernel at one (II,
// latency) point. It reports allocation-class failures (register
// overflow, structural codegen issues) as AllocFailed so the fallback
// ladder can retry the same II with reduced latencies.
func (f *finisher) finish(ii int, s *modsched.Schedule, reduced bool, tr *obs.Trace) sched.Candidate {
	lat := f.polLat
	if reduced {
		lat = f.baseLat
	}
	var prog *interp.Program
	var asn *regalloc.Assignment
	unroll := 1
	if f.plan == nil {
		p, u, st, err := genKernelUnrolled(f.m, f.g, s)
		if err != nil {
			if tr.On() {
				tr.Emit(obs.CodegenEvent{II: ii, Err: err.Error()})
			}
			return sched.Candidate{Err: err, AllocFailed: true}
		}
		prog, unroll = p, u
		asn = &regalloc.Assignment{Stats: st, StagePredBase: 16}
	} else {
		a, err := f.plan.AllocateTraced(s, tr, reduced)
		if err != nil {
			_, overflow := err.(*regalloc.OverflowError)
			return sched.Candidate{Err: err, AllocFailed: overflow}
		}
		p, err := GenKernel(f.l, s, a)
		if err != nil {
			// Cross-stage in-place reads and similar structural issues:
			// treat like an allocation failure and keep searching.
			if tr.On() {
				tr.Emit(obs.CodegenEvent{II: ii, Err: err.Error()})
			}
			return sched.Candidate{Err: err, AllocFailed: true}
		}
		prog, asn = p, a
	}
	return sched.Candidate{
		Done: true,
		Payload: &kernelPayload{
			prog:   prog,
			asn:    asn,
			unroll: unroll,
			loads:  loadReports(f.m, f.g, s, f.policy, lat),
		},
	}
}

// commit installs the winning search result into the compilation result.
func (c *Compiled) commit(l *ir.Loop, minII int, r sched.Result) {
	p := r.Payload.(*kernelPayload)
	c.Program = p.prog
	c.Schedule = r.Sched
	c.Assignment = p.asn
	c.loop = l
	c.FinalII = r.II
	c.Stages = r.Sched.Stages
	c.LatencyReduced = r.Reduced
	c.IIBumps = r.II - minII
	c.UnrollFactor = p.unroll
	c.Loads = p.loads
	c.ProvenII = r.Proven
}
