package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.On() {
		t.Fatal("nil trace reports On")
	}
	tr.Emit(OutcomeEvent{Result: OutcomePipelined}) // must not panic
	if tr.Events() != nil {
		t.Fatal("nil trace returned events")
	}
	if tr.Len() != 0 {
		t.Fatal("nil trace has nonzero length")
	}
	if _, ok := tr.Outcome(); ok {
		t.Fatal("nil trace has an outcome")
	}
}

func TestTraceJSONCarriesKinds(t *testing.T) {
	tr := New()
	tr.Emit(IIBoundsEvent{ResII: 1, BaseRecII: 4, PolicyRecII: 4, MinII: 4, MaxII: 24})
	tr.Emit(LoadClassEvent{Instr: 2, Hint: "L3", Eligible: true, BaseLat: 4, ExpectedLat: 21, Slack: 17})
	tr.Emit(SchedEvent{II: 4, OK: true, Attempts: 12, Budget: 480, Stages: 6})
	tr.Emit(OutcomeEvent{Result: OutcomePipelined, II: 4, Stages: 6})

	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("trace JSON is not an array of objects: %v\n%s", err, b)
	}
	wantKinds := []string{"ii-bounds", "load-class", "modsched", "outcome"}
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(got), len(wantKinds))
	}
	for i, m := range got {
		if m["kind"] != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %s", i, m["kind"], wantKinds[i])
		}
	}
	if got[0]["min_ii"] != float64(4) {
		t.Errorf("ii-bounds min_ii = %v, want 4", got[0]["min_ii"])
	}
}

func TestTraceRenderAndOutcome(t *testing.T) {
	tr := New()
	tr.Emit(LoadClassEvent{Instr: 5, Name: "next", Critical: true,
		CycleNodes: []int{5, 7}, CycleII: 21, Floor: 4, BaseLat: 4, Slack: -1})
	tr.Emit(FallbackEvent{Rung: RungReduceLatency, II: 4})
	tr.Emit(OutcomeEvent{Result: OutcomeReducedLatency, II: 4, Stages: 3})

	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CRITICAL", "5→7", "reduced to base", "fallback-reduced-latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	o, ok := tr.Outcome()
	if !ok || o.Result != OutcomeReducedLatency || o.II != 4 {
		t.Fatalf("Outcome() = %+v, %v", o, ok)
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Emit(SchedEvent{II: j})
				_ = tr.Len()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("lost events: %d != 800", tr.Len())
	}
}

func TestTimelineJSONSchema(t *testing.T) {
	tl := NewTimeline(0)
	tl.Complete("ld4", 10, 1, 0, 2, map[string]any{"level": 3})
	tl.Complete("stall(data)", 11, 7, 0, 100, nil)

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TS   *int64 `json:"ts"`
		Dur  *int64 `json:"dur"`
		PID  *int   `json:"pid"`
		TID  *int   `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("not a catapult array: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	for i, e := range got {
		if e.Name == "" || e.Ph != "X" || e.TS == nil || e.Dur == nil || e.PID == nil || e.TID == nil {
			t.Errorf("event %d missing required catapult fields: %+v", i, e)
		}
	}
}

func TestTimelineLimitAndNil(t *testing.T) {
	tl := NewTimeline(2)
	for i := 0; i < 5; i++ {
		tl.Complete("e", int64(i), 1, 0, 0, nil)
	}
	if tl.Len() != 2 || tl.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", tl.Len(), tl.Dropped())
	}

	var nilTL *Timeline
	if nilTL.On() {
		t.Fatal("nil timeline reports On")
	}
	nilTL.Complete("e", 0, 1, 0, 0, nil) // must not panic
	if nilTL.Len() != 0 || nilTL.Dropped() != 0 {
		t.Fatal("nil timeline stored events")
	}
}
