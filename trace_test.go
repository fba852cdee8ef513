package ltsp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ltsp/internal/interp"
	"ltsp/internal/ir"
	"ltsp/internal/machine"
	"ltsp/internal/obs"
	"ltsp/internal/workload"
)

// quickstartLoop is the README's Fig. 1 copy-add loop with an L3 hint on
// the load, the subject of the `ltsp -explain` acceptance scenario.
func quickstartLoop() *ir.Loop {
	l := ir.NewLoop("copyadd")
	v, b, c, k, v2 := l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR(), l.NewGR()
	ld := ir.Ld(v, b, 4, 4)
	ld.Mem.Hint = ir.HintL3
	ld.Mem.Stride = ir.StrideUnit
	ld.Mem.StrideBytes = 4
	ld.Comment = "v = a[i]"
	l.Append(ld)
	l.Append(ir.Add(v2, v, k))
	l.Append(ir.St(c, v2, 4, 4))
	l.Init(b, 0x10000)
	l.Init(c, 0x20000)
	l.Init(k, 7)
	l.LiveOut = []ir.Reg{b, c}
	return l
}

func TestTraceQuickstartExplain(t *testing.T) {
	tr := NewTrace()
	c, err := Compile(quickstartLoop(), Options{LatencyTolerant: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pipelined {
		t.Fatal("quickstart loop did not pipeline")
	}
	if got := c.Outcome(); got != obs.OutcomePipelined {
		t.Fatalf("outcome = %s, want %s", got, obs.OutcomePipelined)
	}
	m := machine.Itanium2()

	var class []obs.LoadClassEvent
	var sched []obs.LoadSchedEvent
	var hints []obs.HintLatencyEvent
	var outcome *obs.OutcomeEvent
	for _, e := range tr.Events() {
		switch ev := e.(type) {
		case obs.LoadClassEvent:
			class = append(class, ev)
		case obs.LoadSchedEvent:
			sched = append(sched, ev)
		case obs.HintLatencyEvent:
			hints = append(hints, ev)
		case obs.OutcomeEvent:
			outcome = &ev
		}
	}
	// Every load of the loop (there is one) must be named with its
	// classification, slack, assigned latency, and stage.
	if len(class) != 1 || len(sched) != 1 || len(hints) != 1 {
		t.Fatalf("events: class=%d sched=%d hints=%d, want 1 each", len(class), len(sched), len(hints))
	}
	cl := class[0]
	if cl.Critical || !cl.Eligible {
		t.Errorf("classification = %+v, want eligible non-critical", cl)
	}
	if cl.Slack < 0 {
		t.Errorf("non-critical load has no slack recorded: %+v", cl)
	}
	if cl.ExpectedLat != m.Lat.L3Typ {
		t.Errorf("expected latency = %d, want L3Typ %d", cl.ExpectedLat, m.Lat.L3Typ)
	}
	if hints[0].Hint != "L3" || hints[0].HintLat != m.Lat.L3Typ {
		t.Errorf("hint translation = %+v", hints[0])
	}
	sc := sched[0]
	if sc.SchedLat != m.Lat.L3Typ || sc.Stage < 0 {
		t.Errorf("load placement = %+v", sc)
	}
	if outcome == nil || outcome.Result != obs.OutcomePipelined || outcome.II != c.II {
		t.Fatalf("outcome event = %+v", outcome)
	}

	// The human report names the load with the headline facts.
	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"v = a[i]", "non-critical", "slack", "stage", "outcome: pipelined"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain report missing %q:\n%s", want, out)
		}
	}

	// And the JSON form is a well-formed array of kinded events.
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(evs) != tr.Len() {
		t.Errorf("JSON has %d events, trace has %d", len(evs), tr.Len())
	}
}

// TestTraceMcfCaseStudy checks the Sec. 4.4 acceptance scenario: in the
// refresh_potential pointer chase the recurrence load is classified
// critical (boosting it would raise the II) while the delinquent payload
// loads are boosted above base latency.
func TestTraceMcfCaseStudy(t *testing.T) {
	gen, _ := workload.PointerChase(1<<12, 7)
	tr := NewTrace()
	c, err := Compile(gen(), Options{
		Mode: ModeHLO, Prefetch: true, TripEstimate: 2.3,
		BoostDelinquent: true, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pipelined {
		t.Fatal("refresh_potential did not pipeline")
	}

	classByName := map[string]obs.LoadClassEvent{}
	schedByName := map[string]obs.LoadSchedEvent{}
	for _, e := range tr.Events() {
		switch ev := e.(type) {
		case obs.LoadClassEvent:
			classByName[ev.Name] = ev
		case obs.LoadSchedEvent:
			schedByName[ev.Name] = ev
		}
	}

	chase, ok := classByName["node = node->child"]
	if !ok {
		t.Fatalf("no classification event for the chase load; have %v", names(classByName))
	}
	if !chase.Critical {
		t.Errorf("chase load not classified critical: %+v", chase)
	}
	if len(chase.CycleNodes) == 0 || chase.CycleII <= chase.Floor {
		t.Errorf("chase load lacks a binding cycle: %+v", chase)
	}

	boosted := 0
	for _, name := range []string{"basic_arc->cost", "pred->potential"} {
		sc, ok := schedByName[name]
		if !ok {
			t.Errorf("no placement event for %q", name)
			continue
		}
		if sc.Critical {
			t.Errorf("payload load %q classified critical", name)
		}
		if sc.SchedLat > sc.BaseLat {
			boosted++
		}
	}
	if boosted == 0 {
		t.Error("no payload load was boosted above base latency")
	}
}

func names(m map[string]obs.LoadClassEvent) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceSequentialOutcome checks that a forced-sequential compile still
// records its outcome for the service counters.
func TestTraceSequentialOutcome(t *testing.T) {
	no := false
	tr := NewTrace()
	c, err := Compile(quickstartLoop(), Options{Pipeline: &no, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pipelined {
		t.Fatal("Pipeline=false compiled a pipelined kernel")
	}
	if got := c.Outcome(); got != obs.OutcomeSequential {
		t.Fatalf("outcome = %s, want sequential", got)
	}
	o, ok := tr.Outcome()
	if !ok || o.Result != obs.OutcomeSequential {
		t.Fatalf("trace outcome = %+v, %v", o, ok)
	}
	// The sequential program still runs.
	if _, err := Run(c, 4, interp.NewMemory()); err != nil {
		t.Fatal(err)
	}
}

// TestTraceStaticRegisterExhaustion checks a loop whose in-place values
// and invariants overflow the static FP file: the pipeliner gives up once,
// before the II search, and the trace says so in one regalloc event.
func TestTraceStaticRegisterExhaustion(t *testing.T) {
	gen, _ := workload.RegPressureFP(24, 1024)
	tr := NewTrace()
	c, err := Compile(gen(), Options{Mode: ModeAllFPL2, Prefetch: true, LatencyTolerant: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pipelined || c.Outcome() != obs.OutcomeSequential {
		t.Fatalf("pipelined=%t outcome=%s, want a sequential fallback", c.Pipelined, c.Outcome())
	}
	var regalloc []obs.RegallocEvent
	for _, e := range tr.Events() {
		switch ev := e.(type) {
		case obs.SchedEvent, obs.FallbackEvent:
			t.Errorf("II search ran: %T %+v", ev, ev)
		case obs.RegallocEvent:
			regalloc = append(regalloc, ev)
		}
	}
	if len(regalloc) != 1 || regalloc[0].OK || regalloc[0].II != 0 {
		t.Fatalf("regalloc events = %+v, want one failure before the II search", regalloc)
	}
	text := regalloc[0].Err
	if !strings.Contains(text, "static f register file exhausted") {
		t.Errorf("regalloc error %q does not name the static FP file", text)
	}
	o, ok := tr.Outcome()
	if !ok || o.Result != obs.OutcomeSequential || !strings.Contains(o.Err, text) {
		t.Errorf("outcome event = %+v, want sequential with %q", o, text)
	}

	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "regalloc: failed before the II search — "+text) || strings.Contains(out, "II=0") {
		t.Errorf("explain report does not place the failure before the II search:\n%s", out)
	}

	// Forcing the pipeliner surfaces the same allocator text as an error.
	yes := true
	_, err = Compile(gen(), Options{Mode: ModeAllFPL2, Prefetch: true, LatencyTolerant: true, Pipeline: &yes})
	if err == nil || !strings.Contains(err.Error(), "no feasible schedule at any II: "+text) {
		t.Errorf("forced pipelining error = %v, want it to carry %q", err, text)
	}
}
