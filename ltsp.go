// Package ltsp is a library implementation of latency-tolerant software
// pipelining (Winkel, Krishnaiyer, Sampson — CGO 2008): an Itanium-class
// software pipeliner that schedules non-critical loads — loads with enough
// slack in the cyclic dependence graph that a longer scheduled latency
// cannot raise the initiation interval — for the typical latency of a
// deeper cache level, guided by latency hints from the software
// prefetcher. The package bundles the whole stack the paper's evaluation
// needs: loop IR, HLO prefetcher with hint heuristics, iterative modulo
// scheduler, rotating register allocator, kernel-only code generation, and
// a cycle-accurate in-order simulator with an OzQ memory queue.
//
// Quick start:
//
//	l := ltsp.NewLoop("copyadd")
//	v, b, c, k := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
//	ld := ltsp.Ld(v, b, 4, 4)
//	ld.Mem.Stride, ld.Mem.StrideBytes = ltsp.StrideUnit, 4
//	l.Append(ld)
//	l.Append(ltsp.Add(v2, v, k))
//	...
//	compiled, err := ltsp.Compile(l, ltsp.Options{Mode: ltsp.ModeHLO, LatencyTolerant: true})
//	result, err := ltsp.Simulate(compiled, 1000, mem, nil)
package ltsp

import (
	"context"
	"errors"

	"ltsp/internal/cache"
	"ltsp/internal/compiler"
	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/ifconv"
	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/regalloc"
	"ltsp/internal/sim"
)

// Core IR types, re-exported for library users.
type (
	// Loop is an innermost counted loop in if-converted form.
	Loop = ir.Loop
	// Instr is one IR instruction.
	Instr = ir.Instr
	// Reg is a register operand.
	Reg = ir.Reg
	// MemRef is the memory-access descriptor of loads/stores/prefetches.
	MemRef = ir.MemRef
	// RegInit seeds a register value on loop entry.
	RegInit = ir.RegInit
	// MemDep is an explicit memory ordering constraint between body
	// instructions.
	MemDep = ir.MemDep
	// WhileInfo marks a data-terminated (while) loop pipelined with
	// br.wtop on a software validity-predicate chain.
	WhileInfo = ir.WhileInfo
	// Hint is an HLO latency-hint token.
	Hint = ir.Hint
	// StrideKind classifies a memory reference's address stream.
	StrideKind = ir.StrideKind
	// Memory is the simulator's sparse byte-addressed memory.
	Memory = interp.Memory
	// Program is an executable compiled loop.
	Program = interp.Program
	// Machine describes the target processor.
	Machine = machine.Model
	// HintMode selects the hint policy of the HLO pass.
	HintMode = hlo.HintMode
	// LoadReport describes how one load was scheduled.
	LoadReport = core.LoadReport
	// RegStats summarizes register allocation of a pipelined loop.
	RegStats = regalloc.Stats
	// SimConfig parameterizes the timing simulator.
	SimConfig = sim.Config
	// SimResult reports one simulated loop execution.
	SimResult = sim.Result
	// Accounting decomposes simulated cycles into microarchitectural
	// states (the paper's Fig. 10 components).
	Accounting = sim.Accounting
)

// Hint tokens.
const (
	HintNone = ir.HintNone
	HintL2   = ir.HintL2
	HintL3   = ir.HintL3
)

// Stride classes.
const (
	StrideUnknown      = ir.StrideUnknown
	StrideUnit         = ir.StrideUnit
	StrideConst        = ir.StrideConst
	StrideSymbolic     = ir.StrideSymbolic
	StrideIndirect     = ir.StrideIndirect
	StridePointerChase = ir.StridePointerChase
	StrideInvariant    = ir.StrideInvariant
)

// Hint modes.
const (
	ModeNone    = hlo.ModeNone
	ModeAllL3   = hlo.ModeAllL3
	ModeAllFPL2 = hlo.ModeAllFPL2
	ModeHLO     = hlo.ModeHLO
)

// If-conversion front end (paper Sec. 3.3: loops are if-converted before
// pipelining). Build a structured body with Stmt/If/Merge and lower it
// with IfConvert; conditionals become predicated straight-line code with
// single-definition sel merges.
type (
	// Stmt is one statement of a structured loop body.
	Stmt = ifconv.Stmt
	// IfRegion is a structured two-armed conditional.
	IfRegion = ifconv.If
	// Merge declares a value produced on both arms of a conditional.
	Merge = ifconv.Merge
)

// StmtOf wraps an instruction as a structured statement.
func StmtOf(in *Instr) Stmt { return ifconv.I(in) }

// CondOf wraps a conditional region as a structured statement.
func CondOf(region *IfRegion) Stmt { return ifconv.Cond(region) }

// IfConvert lowers a structured body into the loop's predicated
// straight-line body.
func IfConvert(l *Loop, body []Stmt) error { return ifconv.Convert(l, body) }

// DataSpeculate breaks may-alias memory dependences ending at loads
// (advanced loads validated by chk.a), shortening recurrence cycles; it
// returns the number of dependences broken.
func DataSpeculate(l *Loop) int { return core.DataSpeculate(l) }

// NewLoop returns an empty loop with the given name.
func NewLoop(name string) *Loop { return ir.NewLoop(name) }

// NewMemory returns an empty memory image.
func NewMemory() *Memory { return interp.NewMemory() }

// Itanium2 returns the Dual-Core Itanium 2 machine model the paper
// evaluates on.
func Itanium2() *Machine { return machine.Itanium2() }

// IR instruction constructors (see package ir for the full set).
var (
	// Ld builds an integer load dst = [base] with post-increment.
	Ld = ir.Ld
	// LdF builds an FP load (bypasses L1 on Itanium 2).
	LdF = ir.LdF
	// St builds an integer store [base] = val.
	St = ir.St
	// StF builds an FP store.
	StF = ir.StF
	// Lfetch builds a software prefetch.
	Lfetch = ir.Lfetch
	// Add, Sub, AddI, MovI, Mov, Shladd, Mul are integer ALU builders.
	Add    = ir.Add
	Sub    = ir.Sub
	AddI   = ir.AddI
	MovI   = ir.MovI
	Mov    = ir.Mov
	Shladd = ir.Shladd
	Mul    = ir.Mul
	// FAdd, FMul, FMA are FP builders.
	FAdd = ir.FAdd
	FMul = ir.FMul
	FMA  = ir.FMA
	// CmpEqI, CmpLt build predicate-writing compares; Predicated attaches
	// a qualifying predicate.
	CmpEqI     = ir.CmpEqI
	CmpLt      = ir.CmpLt
	Predicated = ir.Predicated
)

// Options controls Compile.
type Options struct {
	// Mode selects the HLO hint policy (ModeNone = the paper's baseline).
	Mode HintMode
	// Prefetch enables the software prefetcher (default in the paper).
	Prefetch bool
	// LatencyTolerant enables latency-tolerant pipelining for the loop.
	LatencyTolerant bool
	// BoostDelinquent boosts HLO-flagged delinquent loads even when
	// LatencyTolerant is off (the trip-count-threshold override).
	BoostDelinquent bool
	// TripEstimate is the compile-time trip-count estimate (<= 0 unknown);
	// it clamps prefetch distances.
	TripEstimate float64
	// Pipeline forces the pipelining decision; when nil the loop is
	// pipelined if possible.
	Pipeline *bool
	// Model overrides the target processor (nil = Itanium2()).
	Model *Machine
	// Backend selects the scheduling backend by name: BackendHeuristic
	// (or "", the default) for the production iterative modulo
	// scheduler, BackendExact for the branch-and-bound optimal pipeliner
	// (small loops; falls back to the heuristic per-II beyond its size
	// budget), or BackendOracle for the heuristic schedule plus an exact
	// optimality-gap probe recorded in the trace. Unknown names fail the
	// compilation. See SchedulerBackends.
	Backend string
	// Trace, when non-nil, collects the compiler's full decision trace
	// (classification, hint translation, II search, fallback ladder,
	// allocation); nil disables collection with zero overhead. See
	// package obs.
	Trace *Trace
	// Verify runs the independent verification layer (package verify) on
	// the compiled program before returning it: the structural schedule
	// checker plus the semantic differential oracle against the source
	// loop. A verification failure fails the compilation.
	Verify bool
}

// Trace is the compiler's structured decision trace (package obs).
type Trace = obs.Trace

// NewTrace returns an empty decision trace to pass in Options.Trace.
func NewTrace() *Trace { return obs.New() }

// Scheduler backend names for Options.Backend.
const (
	// BackendHeuristic is the production iterative modulo scheduler (the
	// default).
	BackendHeuristic = core.BackendHeuristic
	// BackendExact is the branch-and-bound optimal pipeliner for small
	// loops: it proves II-optimality and minimizes max register lifetime.
	BackendExact = core.BackendExact
	// BackendOracle compiles with the heuristic and measures its
	// optimality gap against the exact solver.
	BackendOracle = core.BackendOracle
)

// SchedulerBackends returns the names of every selectable scheduling
// backend, sorted.
func SchedulerBackends() []string { return core.Backends() }

// Compiled is the result of compiling one loop.
type Compiled struct {
	// Program is the executable form (pipelined kernel or sequential
	// schedule).
	Program *Program
	// Pipelined reports whether software pipelining succeeded/was chosen.
	Pipelined bool
	// II and Stages describe the kernel (pipelined only).
	II, Stages int
	// ResII and RecII are the II lower bounds (pipelined only).
	ResII, RecII int
	// Loads reports per-load scheduling decisions (pipelined only).
	Loads []LoadReport
	// Reg is the register allocation footprint (pipelined only).
	Reg RegStats
	// HLO reports the prefetcher's decisions.
	HLO *hlo.Report
	// LatencyReduced reports that the fallback ladder dropped non-critical
	// latencies back to base; IIBumps counts IIs tried beyond MinII
	// (pipelined only).
	LatencyReduced bool
	IIBumps        int
	// Attempts counts modulo-scheduler placements across the II search,
	// the paper's compile-time cost proxy (pipelined only).
	Attempts int
	// Backend names the scheduling backend the compilation selected
	// ("heuristic", "exact", or "oracle") — stamped on sequential
	// fallbacks too, so telemetry can always attribute the outcome.
	Backend string
	// ProvenII reports that II is provably optimal: it meets the MinII
	// lower bound, or the exact backend refuted every lower II.
	ProvenII bool

	res compiler.Result // kernel and source loop for Outcome, Diagram and Verify
}

// Outcome names the compilation outcome: obs.OutcomePipelined,
// obs.OutcomeReducedLatency, obs.OutcomeRaisedII, or obs.OutcomeSequential.
func (c *Compiled) Outcome() string {
	if !c.Pipelined || c.res.Kernel == nil {
		return obs.OutcomeSequential
	}
	return c.res.Kernel.Outcome()
}

// Diagram renders the conceptual pipeline view of the paper's Figs. 2/4
// for n source iterations (pipelined compilations only).
func (c *Compiled) Diagram(n int) string {
	if c.res.Kernel == nil {
		return ""
	}
	return c.res.Kernel.Diagram(n)
}

// Compile runs the HLO prefetcher and the (latency-tolerant) software
// pipeliner on the loop, falling back to an acyclic list schedule when
// pipelining is infeasible or disabled.
func Compile(l *Loop, opts Options) (*Compiled, error) {
	return CompileContext(context.Background(), l, opts)
}

// CompileContext is Compile with cooperative cancellation: the
// pipeliner's II search checks ctx between candidate IIs and abandons
// the compilation with an error wrapping ctx.Err() once the context is
// done, so callers that stop caring (a timed-out service request, a
// canceled batch) stop burning CPU. Cancellation never degrades the
// result: a canceled compilation returns the error rather than falling
// back to the sequential schedule.
func CompileContext(ctx context.Context, l *Loop, opts Options) (*Compiled, error) {
	r, err := compiler.Compile(ctx, l, compiler.Options{
		HLO:      hlo.Options{Mode: opts.Mode, Prefetch: opts.Prefetch, TripEstimate: opts.TripEstimate},
		Pipeline: opts.Pipeline,
		Verify:   opts.Verify,
		Core: core.Options{
			Model:           opts.Model,
			LatencyTolerant: opts.LatencyTolerant,
			BoostDelinquent: opts.BoostDelinquent,
			Backend:         opts.Backend,
			Trace:           opts.Trace,
		},
	})
	if err != nil {
		return nil, err
	}
	out := &Compiled{Program: r.Program, HLO: r.HLO, Backend: r.Backend, res: r}
	if c := r.Kernel; c != nil {
		out.Pipelined = true
		out.II, out.Stages = c.FinalII, c.Stages
		out.ResII, out.RecII = c.ResII, c.BaseRecII
		out.Loads = c.Loads
		out.Reg = c.Assignment.Stats
		out.LatencyReduced = c.LatencyReduced
		out.IIBumps = c.IIBumps
		out.Attempts = c.Attempts
		out.ProvenII = c.ProvenII
	}
	return out, nil
}

// Verify re-checks the compilation with the independent verification
// layer: for pipelined programs the structural schedule verifier
// (dependences, resources, stage count and register lifetimes re-derived
// from scratch), then — for every compilation — the semantic differential
// oracle, which executes the source loop and the compiled program on
// identical seeded memory images across a battery of trip counts
// (including trips shorter than the pipeline's stage count) and compares
// final memory and live-out values. It returns the first discrepancy.
func (c *Compiled) Verify() error {
	if c.res.Loop == nil || c.Program == nil {
		return errors.New("ltsp: compilation retains no source loop to verify against")
	}
	return c.res.Verify()
}

// DefaultSimConfig returns the simulator configuration used throughout the
// paper reproduction: the Itanium 2 model with its cache hierarchy, bank
// conflicts on, and small fixed loop entry/exit overheads.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs the compiled loop for the given trip count against mem
// (nil = fresh empty memory) and returns cycle counts with full Fig.-10
// style accounting. cfg nil means DefaultSimConfig.
func Simulate(c *Compiled, trip int64, mem *Memory, cfg *SimConfig) (*SimResult, error) {
	conf := sim.DefaultConfig()
	if cfg != nil {
		conf = *cfg
	}
	return sim.NewRunner(conf).Run(c.Program, trip, mem)
}

// NewRunner returns a reusable simulator whose cache hierarchy and clock
// persist across runs (for warm-cache measurement of repeated loop
// executions).
func NewRunner(cfg *SimConfig) *sim.Runner {
	conf := sim.DefaultConfig()
	if cfg != nil {
		conf = *cfg
	}
	return sim.NewRunner(conf)
}

// Run executes the compiled loop functionally (no timing) — useful for
// verifying results independently of the timing model.
func Run(c *Compiled, trip int64, mem *Memory) (*interp.State, error) {
	return interp.Run(c.Program, trip, mem)
}

// CacheConfig is the cache hierarchy geometry of the timing simulator
// (SimConfig.Cache).
type CacheConfig = cache.Config
