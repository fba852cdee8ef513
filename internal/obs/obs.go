// Package obs is the structured observability layer for the pipeline
// stack: a zero-dependency event trace that the compiler (core, modsched,
// regalloc) fills with typed decision records — load classification,
// hint→latency translation, II-search iterations, fallback-ladder rungs,
// register-allocation outcomes — and that renders both as JSON (for the
// service and machine consumers) and as a human-readable report (the
// `ltsp -explain` output). A nil *Trace disables collection entirely: every
// method is nil-safe and emission sites guard with On(), so the untraced
// compile path pays nothing.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Event is one typed trace record. Kind returns the stable snake-less
// identifier spliced into the JSON rendering as the "kind" field.
type Event interface {
	Kind() string
	human() string
}

// Trace collects events from one compilation. Safe for concurrent use; all
// methods are nil-safe so callers thread an optional *Trace without guards.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// On reports whether tracing is enabled. Hot paths check it before
// constructing event values.
func (t *Trace) On() bool { return t != nil }

// Emit appends one event; no-op on a nil trace.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a snapshot copy of the collected events.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of collected events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Outcome returns the final OutcomeEvent, if one was emitted.
func (t *Trace) Outcome() (OutcomeEvent, bool) {
	evs := t.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if o, ok := evs[i].(OutcomeEvent); ok {
			return o, true
		}
	}
	return OutcomeEvent{}, false
}

// MarshalJSON renders the trace as a JSON array of event objects, each
// carrying its "kind" as the first field.
func (t *Trace) MarshalJSON() ([]byte, error) {
	evs := t.Events()
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, e := range evs {
		if i > 0 {
			buf.WriteByte(',')
		}
		b, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		kind, _ := json.Marshal(e.Kind())
		if len(b) >= 2 && b[0] == '{' {
			buf.WriteString(`{"kind":`)
			buf.Write(kind)
			if len(b) > 2 {
				buf.WriteByte(',')
			}
			buf.Write(b[1:])
		} else {
			buf.WriteString(`{"kind":`)
			buf.Write(kind)
			buf.WriteString(`,"value":`)
			buf.Write(b)
			buf.WriteByte('}')
		}
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// Render writes the human-readable decision report, one line per event.
func (t *Trace) Render(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.human()); err != nil {
			return err
		}
	}
	return nil
}

// Compilation outcomes reported by OutcomeEvent.Result and counted by the
// service's /metrics pipeliner-outcome counters.
const (
	// OutcomePipelined: pipelined at MinII with the policy latencies intact.
	OutcomePipelined = "pipelined"
	// OutcomeReducedLatency: pipelined, but the fallback ladder's first rung
	// fired — non-critical latencies were dropped back to base to satisfy
	// register allocation.
	OutcomeReducedLatency = "fallback-reduced-latency"
	// OutcomeRaisedII: pipelined at an II above MinII (the ladder's second
	// rung; the policy latencies may or may not have survived).
	OutcomeRaisedII = "fallback-raised-ii"
	// OutcomeSequential: pipelining failed or was disabled and the loop got
	// an acyclic list schedule.
	OutcomeSequential = "sequential"
)

// HintLatencyEvent records one hint→latency translation: what scheduling
// latency the HLO hint token on a load requests from the machine model.
type HintLatencyEvent struct {
	Instr   int    `json:"instr"`
	Name    string `json:"name,omitempty"`
	Hint    string `json:"hint"`
	FP      bool   `json:"fp,omitempty"`
	BaseLat int    `json:"base_lat"`
	HintLat int    `json:"hint_lat"`
}

// Kind implements Event.
func (HintLatencyEvent) Kind() string { return "hint-latency" }

func (e HintLatencyEvent) human() string {
	return fmt.Sprintf("hint: load [%d]%s hint %s → expected latency %d (base %d)",
		e.Instr, nameSuffix(e.Name), e.Hint, e.HintLat, e.BaseLat)
}

// LoadClassEvent records the critical/non-critical classification of one
// load (paper Sec. 3.3). For a critical load, CycleNodes/CycleII/Floor
// identify the binding recurrence cycle: the cycle whose II bound under
// elevated latencies would exceed the loop's II floor. For a non-critical
// load, Slack is its scheduling slack at MinII under the policy latencies.
type LoadClassEvent struct {
	Instr       int    `json:"instr"`
	Name        string `json:"name,omitempty"`
	Hint        string `json:"hint"`
	Eligible    bool   `json:"eligible"`
	Critical    bool   `json:"critical"`
	BaseLat     int    `json:"base_lat"`
	ExpectedLat int    `json:"expected_lat"`
	CycleNodes  []int  `json:"cycle_nodes,omitempty"`
	CycleII     int    `json:"cycle_ii,omitempty"`
	Floor       int    `json:"floor,omitempty"`
	Slack       int    `json:"slack"`
}

// Kind implements Event.
func (LoadClassEvent) Kind() string { return "load-class" }

func (e LoadClassEvent) human() string {
	if e.Critical {
		return fmt.Sprintf("classify: load [%d]%s CRITICAL — cycle {%s} would impose II=%d > floor %d; kept at base latency %d",
			e.Instr, nameSuffix(e.Name), joinInts(e.CycleNodes, "→"), e.CycleII, e.Floor, e.BaseLat)
	}
	if !e.Eligible {
		return fmt.Sprintf("classify: load [%d]%s not eligible for boosting; base latency %d",
			e.Instr, nameSuffix(e.Name), e.BaseLat)
	}
	return fmt.Sprintf("classify: load [%d]%s non-critical (slack %d at MinII) — scheduled latency %d (base %d, hint %s)",
		e.Instr, nameSuffix(e.Name), e.Slack, e.ExpectedLat, e.BaseLat, e.Hint)
}

// IIBoundsEvent records the II search bounds: the resource bound, the base
// recurrence bound, the recurrence bound under the policy latencies, and
// the derived search interval [MinII, MaxII].
type IIBoundsEvent struct {
	ResII       int `json:"res_ii"`
	BaseRecII   int `json:"base_rec_ii"`
	PolicyRecII int `json:"policy_rec_ii"`
	MinII       int `json:"min_ii"`
	MaxII       int `json:"max_ii"`
}

// Kind implements Event.
func (IIBoundsEvent) Kind() string { return "ii-bounds" }

func (e IIBoundsEvent) human() string {
	return fmt.Sprintf("bounds: ResII=%d BaseRecII=%d policy RecII=%d → MinII=%d, search cap %d",
		e.ResII, e.BaseRecII, e.PolicyRecII, e.MinII, e.MaxII)
}

// SchedEvent records one modulo-scheduling attempt at a fixed II: whether
// it completed, how many placement operations it spent against its budget,
// and how many evictions (backtracking displacements) occurred.
type SchedEvent struct {
	II        int  `json:"ii"`
	OK        bool `json:"ok"`
	Attempts  int  `json:"attempts"`
	Evictions int  `json:"evictions"`
	Budget    int  `json:"budget"`
	Stages    int  `json:"stages,omitempty"`
}

// Kind implements Event.
func (SchedEvent) Kind() string { return "modsched" }

func (e SchedEvent) human() string {
	if e.OK {
		return fmt.Sprintf("modsched: II=%d ok — %d stages (attempts %d, evictions %d, budget %d)",
			e.II, e.Stages, e.Attempts, e.Evictions, e.Budget)
	}
	return fmt.Sprintf("modsched: II=%d failed — budget exhausted (attempts %d, evictions %d, budget %d)",
		e.II, e.Attempts, e.Evictions, e.Budget)
}

// RegallocEvent records one rotating register allocation attempt. II is 0
// for the schedule-independent static-register check that runs once
// before the II search.
type RegallocEvent struct {
	II      int    `json:"ii"`
	Reduced bool   `json:"reduced"`
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
	RotGR   int    `json:"rot_gr,omitempty"`
	RotFR   int    `json:"rot_fr,omitempty"`
	RotPR   int    `json:"rot_pr,omitempty"`
	Static  int    `json:"static,omitempty"`
}

// Kind implements Event.
func (RegallocEvent) Kind() string { return "regalloc" }

func (e RegallocEvent) human() string {
	if e.II == 0 {
		return "regalloc: failed before the II search — " + e.Err
	}
	lat := "policy latencies"
	if e.Reduced {
		lat = "reduced (base) latencies"
	}
	if e.OK {
		return fmt.Sprintf("regalloc: II=%d ok with %s — rot GR=%d FR=%d PR=%d, static %d",
			e.II, lat, e.RotGR, e.RotFR, e.RotPR, e.Static)
	}
	return fmt.Sprintf("regalloc: II=%d failed with %s — %s", e.II, lat, e.Err)
}

// Fallback-ladder rungs reported by FallbackEvent.Rung (paper Sec. 3.3).
const (
	// RungReduceLatency: retry the same II with non-critical latencies
	// dropped to base.
	RungReduceLatency = "reduce-latency"
	// RungRaiseII: move to the next II with the policy latencies restored.
	RungRaiseII = "raise-ii"
)

// FallbackEvent records one rung of the fallback ladder firing.
type FallbackEvent struct {
	Rung string `json:"rung"`
	II   int    `json:"ii"`
}

// Kind implements Event.
func (FallbackEvent) Kind() string { return "fallback" }

func (e FallbackEvent) human() string {
	switch e.Rung {
	case RungReduceLatency:
		return fmt.Sprintf("fallback: retry II=%d with latencies reduced to base", e.II)
	default:
		return fmt.Sprintf("fallback: raise II to %d (hints re-enabled)", e.II)
	}
}

// CodegenEvent records a kernel-generation failure (structural issues such
// as cross-stage in-place reads); successes are implied by OutcomeEvent.
type CodegenEvent struct {
	II  int    `json:"ii"`
	Err string `json:"err"`
}

// Kind implements Event.
func (CodegenEvent) Kind() string { return "codegen" }

func (e CodegenEvent) human() string {
	return fmt.Sprintf("codegen: II=%d failed — %s", e.II, e.Err)
}

// LoadSchedEvent records where one load landed in the accepted schedule:
// its realized extra latency d, clustering factor k = d/II + 1 (Equ. 3),
// and pipeline stage/slot.
type LoadSchedEvent struct {
	Instr    int    `json:"instr"`
	Name     string `json:"name,omitempty"`
	Critical bool   `json:"critical"`
	Hint     string `json:"hint"`
	BaseLat  int    `json:"base_lat"`
	SchedLat int    `json:"sched_lat"`
	ExtraD   int    `json:"extra_d"`
	ClusterK int    `json:"cluster_k"`
	Stage    int    `json:"stage"`
	Slot     int    `json:"slot"`
}

// Kind implements Event.
func (LoadSchedEvent) Kind() string { return "load-sched" }

func (e LoadSchedEvent) human() string {
	class := "non-critical"
	if e.Critical {
		class = "critical"
	}
	return fmt.Sprintf("sched: load [%d]%s %s — latency %d (base %d), realized d=%d, k=%d, stage %d slot %d",
		e.Instr, nameSuffix(e.Name), class, e.SchedLat, e.BaseLat, e.ExtraD, e.ClusterK, e.Stage, e.Slot)
}

// OutcomeEvent is the final record of a compilation: which outcome the
// search reached and the headline schedule parameters.
type OutcomeEvent struct {
	Result         string `json:"result"`
	II             int    `json:"ii,omitempty"`
	Stages         int    `json:"stages,omitempty"`
	Attempts       int    `json:"attempts,omitempty"`
	IIBumps        int    `json:"ii_bumps,omitempty"`
	LatencyReduced bool   `json:"latency_reduced,omitempty"`
	Err            string `json:"err,omitempty"`
}

// Kind implements Event.
func (OutcomeEvent) Kind() string { return "outcome" }

func (e OutcomeEvent) human() string {
	switch e.Result {
	case OutcomeSequential:
		if e.Err != "" {
			return fmt.Sprintf("outcome: sequential schedule (pipelining failed: %s)", e.Err)
		}
		return "outcome: sequential schedule"
	default:
		return fmt.Sprintf("outcome: %s at II=%d, %d stages (%d II bumps, %d placement attempts)",
			e.Result, e.II, e.Stages, e.IIBumps, e.Attempts)
	}
}

// Exact-backend solve statuses reported by ExactEvent.Status.
const (
	// ExactFeasible: the branch-and-bound solver found a schedule at
	// this II (optimal by construction: every lower II was refuted
	// first, or this II meets the lower bound).
	ExactFeasible = "feasible"
	// ExactInfeasible: the solver proved no schedule exists at this II
	// within its scheduling window.
	ExactInfeasible = "infeasible"
	// ExactUnknown: the solver ran out of node budget or deadline before
	// deciding; the attempt falls back to the heuristic.
	ExactUnknown = "unknown"
)

// ExactEvent records one exact branch-and-bound solve at a fixed II.
type ExactEvent struct {
	II      int    `json:"ii"`
	Status  string `json:"status"`
	Nodes   int64  `json:"nodes"`
	MaxLife int    `json:"max_life,omitempty"`
	// LifeProven reports that MaxLife is the provably minimal max
	// register lifetime at this II (the tiebreak search ran to proof
	// rather than exhausting its budget).
	LifeProven bool `json:"life_proven,omitempty"`
}

// Kind implements Event.
func (ExactEvent) Kind() string { return "exact" }

func (e ExactEvent) human() string {
	switch e.Status {
	case ExactFeasible:
		proof := "best-effort"
		if e.LifeProven {
			proof = "proven minimal"
		}
		return fmt.Sprintf("exact: II=%d feasible — max register lifetime %d (%s), %d nodes",
			e.II, e.MaxLife, proof, e.Nodes)
	case ExactInfeasible:
		return fmt.Sprintf("exact: II=%d proven infeasible (%d nodes)", e.II, e.Nodes)
	default:
		return fmt.Sprintf("exact: II=%d undecided — budget exhausted (%d nodes)", e.II, e.Nodes)
	}
}

// ExactFallbackEvent records the exact backend handing one fixed-II
// attempt to the heuristic scheduler: the loop exceeded the solver's
// size budget, or the solve was undecided within its node budget or
// deadline. The attempt then proceeds exactly as the heuristic backend
// would run it — a fallback is never an error.
type ExactFallbackEvent struct {
	II     int    `json:"ii"`
	Reason string `json:"reason"`
}

// Kind implements Event.
func (ExactFallbackEvent) Kind() string { return "exact-fallback" }

func (e ExactFallbackEvent) human() string {
	return fmt.Sprintf("exact: II=%d handed to heuristic (%s)", e.II, e.Reason)
}

// OracleGapEvent records the oracle backend's optimality-gap probe: the
// heuristic's achieved II and max register lifetime against the exact
// solver's. ExactII equals the heuristic II when every lower II was
// refuted; Proven is false when any probe was undecided.
type OracleGapEvent struct {
	HeurII    int  `json:"heur_ii"`
	ExactII   int  `json:"exact_ii"`
	Proven    bool `json:"proven"`
	HeurLife  int  `json:"heur_life"`
	ExactLife int  `json:"exact_life,omitempty"`
}

// Kind implements Event.
func (OracleGapEvent) Kind() string { return "oracle-gap" }

func (e OracleGapEvent) human() string {
	proof := "unproven"
	if e.Proven {
		proof = "proven"
	}
	return fmt.Sprintf("oracle: heuristic II=%d vs exact II=%d (%s), max lifetime %d vs %d",
		e.HeurII, e.ExactII, proof, e.HeurLife, e.ExactLife)
}

func nameSuffix(name string) string {
	if name == "" {
		return ""
	}
	return " " + name
}

func joinInts(xs []int, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, sep)
}
