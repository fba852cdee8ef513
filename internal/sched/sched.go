// Package sched defines the Scheduler interface the pipeliner's II
// search sits behind, plus the names of the in-tree backends. The
// interface captures exactly what package core's pipeline needs from a
// scheduler: a
// fixed-II scheduling entry point and a full II search that runs the
// paper's fallback ladder (Sec. 3.3) at each candidate II.
//
// Two backends ship in-tree: the production `heuristic` backend (this
// package; iterative modulo scheduling + the sequential II search,
// byte-identical to the pre-interface pipeline) and the `exact`
// branch-and-bound backend in sched/exact, which proves II-optimality
// for small loops and doubles as the `oracle` backend measuring the
// heuristic's optimality gap.
package sched

import (
	"context"
	"fmt"
	"slices"

	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/modsched"
	"ltsp/internal/obs"
)

// Request bundles the read-only inputs of one II search. Scheduling,
// register allocation, and code generation never mutate the loop,
// graph, machine model, or latency policies, so an attempt at a given
// II depends only on the request.
type Request struct {
	// Loop is the (HLO-processed) source loop; Graph.Loop aliases it.
	Loop *ir.Loop
	// Model is the target processor.
	Model *machine.Model
	// Graph is the dependence graph over Loop.Body.
	Graph *ddg.Graph
	// PolLat is the policy (hint-derived) latency function; BaseLat the
	// base-latency function the reduced-latency fallback rung retries
	// with.
	PolLat, BaseLat ddg.LatencyFn
	// MinII and MaxII bound the II search (inclusive).
	MinII, MaxII int
	// BudgetRatio is passed to the modulo scheduler (placement budget).
	BudgetRatio int
	// HaveBoost arms the reduced-latency fallback rung: it is set when
	// the latency-tolerant policy (or delinquent-load boosting) actually
	// raised any latency above base, so there is something to roll back.
	HaveBoost bool
}

// Candidate is the caller's verdict on one schedule: the Finisher ran
// register allocation and code generation on it and reports whether the
// attempt completed, and if not, whether the failure was an
// allocation-class failure (which arms the reduced-latency rung).
type Candidate struct {
	// Done marks a completed attempt; Payload carries the caller's
	// compiled artifacts (opaque to the scheduler).
	Done    bool
	Payload any
	// AllocFailed marks a register-allocation-class failure: the
	// fallback ladder may retry the same II with reduced latencies.
	AllocFailed bool
	// Err is the failure, if any; the search reports the last one seen
	// when every II fails.
	Err error
}

// Finisher runs the caller's post-scheduling pipeline (register
// allocation + code generation) on a schedule produced at the given II.
// reduced marks the reduced-latency rung. Decision events go to tr,
// interleaved with the scheduler's own events.
//
// A Finisher must depend only on its arguments and read-only state, so
// an attempt at II k always produces the same candidate and events.
type Finisher func(ii int, s *modsched.Schedule, reduced bool, tr *obs.Trace) Candidate

// Result is the outcome of a Search.
type Result struct {
	// Found reports whether any II in [MinII, MaxII] completed.
	Found bool
	// II is the winning initiation interval (when Found).
	II int
	// Sched is the winning schedule (when Found).
	Sched *modsched.Schedule
	// Payload is the winning Candidate's payload (when Found).
	Payload any
	// Reduced records that the winning attempt used the reduced-latency
	// rung.
	Reduced bool
	// Attempts counts individual placement operations across the whole
	// search (the paper's compile-time cost metric).
	Attempts int
	// Proven reports that II is *provably* optimal: either II == MinII
	// (it meets the lower bound) or the backend proved every lower II
	// infeasible. The heuristic backend can only prove the former.
	Proven bool
	// LastErr is the last allocation/codegen failure recorded when the
	// search fails (nil when Found, or when only scheduling failed).
	LastErr error
}

// Scheduler is a pluggable scheduling backend. Implementations must be
// deterministic: the same Request must always produce the same result,
// attempts, and trace events.
type Scheduler interface {
	// Name returns the backend's registered name.
	Name() string
	// ScheduleAtII tries to schedule the loop at a fixed II under the
	// latency policy latf, emitting its decision events to tr. It
	// returns nil, false when no schedule was found at this II. ctx is
	// advisory: a backend with long per-II solves must observe it and
	// give up (nil, false) once the context is done.
	ScheduleAtII(ctx context.Context, req *Request, ii int, latf ddg.LatencyFn, tr *obs.Trace) (*modsched.Schedule, bool)
	// Search runs the full II search with the fallback ladder, calling
	// finish on every schedule it produces and committing the lowest
	// feasible II. The search checks ctx between candidate IIs.
	Search(ctx context.Context, req *Request, tr *obs.Trace, finish Finisher) Result
}

// BackendHeuristic, BackendExact, and BackendOracle are the names of the
// in-tree backends. The empty string selects the heuristic.
const (
	BackendHeuristic = "heuristic"
	BackendExact     = "exact"
	BackendOracle    = "oracle"
)

// backends is the sorted set of selectable backend names.
var backends = []string{BackendExact, BackendHeuristic, BackendOracle}

// Backends returns the sorted names of every selectable backend.
func Backends() []string { return slices.Clone(backends) }

// Resolve returns the canonical name of a backend: the empty string
// selects the heuristic. Unknown names return an error listing the
// selectable backends.
func Resolve(name string) (string, error) {
	if name == "" {
		return BackendHeuristic, nil
	}
	if !slices.Contains(backends, name) {
		return "", fmt.Errorf("sched: unknown scheduler backend %q (have %v)", name, backends)
	}
	return name, nil
}
