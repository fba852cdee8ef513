// Package compiler is the one compile path every loop takes (paper
// Sec. 3.3): the HLO prefetcher places its hints and prefetches, the
// software pipeliner runs its II search and fallback ladder, and a loop
// the pipeliner cannot (or may not) pipeline gets the acyclic sequential
// schedule. ltsp.CompileContext maps the library's public options onto
// Compile; the experiments that need pipeliner knobs the library does
// not export (core.Options.ForceLoadLatency, NoRotation) call Compile
// directly.
package compiler

import (
	"context"
	"errors"

	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/verify"
)

// Options controls Compile.
type Options struct {
	// HLO configures the prefetcher. Its Model is ignored: both passes
	// compile for Core.Model.
	HLO hlo.Options
	// Pipeline forces the pipelining decision; when nil the loop is
	// pipelined if possible. A forced pipeline that fails returns the
	// pipeliner's error instead of falling back to the sequential
	// schedule.
	Pipeline *bool
	// Verify runs Result.Verify before returning; a verification failure
	// fails the compilation.
	Verify bool
	// Core configures the pipeliner (nil Model = machine.Itanium2()).
	Core core.Options
}

// Result is the outcome of compiling one loop.
type Result struct {
	// Program is the executable form (pipelined kernel or sequential
	// schedule).
	Program *interp.Program
	// Kernel is the pipeliner's result; nil for a sequential schedule.
	Kernel *core.Compiled
	// HLO reports the prefetcher's decisions.
	HLO *hlo.Report
	// Backend names the scheduling backend the compilation selected. It
	// is set on sequential schedules too, so telemetry can always
	// attribute the outcome.
	Backend string
	// Loop is the HLO-processed source loop, retained for verification.
	Loop *ir.Loop
	// Model is the target processor the loop was compiled for.
	Model *machine.Model
}

// Compile runs HLO on l in place, then the pipeliner, falling back to
// the sequential schedule when pipelining is infeasible or disabled. The
// pipeliner's II search checks ctx between candidate IIs; a canceled
// compilation returns an error wrapping ctx.Err() rather than falling
// back.
func Compile(ctx context.Context, l *ir.Loop, o Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Validate the backend up front: an unknown name is a caller error,
	// not "pipelining infeasible", so it must never degrade to the
	// sequential-schedule fallback.
	backend, err := core.Resolve(o.Core.Backend)
	if err != nil {
		return Result{}, err
	}
	// HLO indexes the body by instruction ID, so a malformed loop must
	// fail here as an error rather than panic inside the prefetcher.
	if err := l.Verify(); err != nil {
		return Result{}, err
	}
	m := o.Core.Model
	if m == nil {
		m = machine.Itanium2()
	}
	o.HLO.Model, o.Core.Model = m, m
	rep, err := hlo.Apply(l, o.HLO)
	if err != nil {
		return Result{}, err
	}
	res := Result{HLO: rep, Backend: backend, Loop: l, Model: m}
	var pipeErr error
	if o.Pipeline == nil || *o.Pipeline {
		c, err := core.PipelineCtx(ctx, l, o.Core)
		switch {
		case err == nil:
			res.Program, res.Kernel, res.Backend = c.Program, c, c.Backend
			return res.verified(o.Verify)
		case o.Pipeline != nil:
			return Result{}, err
		// A canceled search is not "pipelining infeasible": surface the
		// cancellation instead of silently emitting a sequential schedule.
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return Result{}, err
		}
		pipeErr = err
	}
	p, err := core.GenSequential(m, l)
	if err != nil {
		return Result{}, err
	}
	res.Program = p
	if o.Core.Trace.On() {
		ev := obs.OutcomeEvent{Result: obs.OutcomeSequential}
		if pipeErr != nil {
			ev.Err = pipeErr.Error()
		}
		o.Core.Trace.Emit(ev)
	}
	return res.verified(o.Verify)
}

// verified returns r, or the first discrepancy when check is set and
// Verify fails.
func (r *Result) verified(check bool) (Result, error) {
	if check {
		if err := r.Verify(); err != nil {
			return Result{}, err
		}
	}
	return *r, nil
}

// Verify re-checks the compilation with the independent verification
// layer: the structural schedule verifier for a pipelined kernel, then
// the semantic differential oracle against the source loop for every
// compilation. It returns the first discrepancy.
func (r *Result) Verify() error {
	if k := r.Kernel; k != nil && k.Schedule != nil {
		if err := verify.Schedule(r.Model, k.Loop(), k.Schedule, k.Assignment); err != nil {
			return err
		}
	}
	return verify.Kernel(r.Loop, r.Program, verify.Config{Seed: 1})
}
