package server

import (
	"context"
	"time"

	"ltsp/internal/telemetry"
)

// stageID names one serving stage: an instrumented step of a request —
// the worker-slot wait, each artifact tier, verification, write-through,
// a batch item. Its instruments are Metrics.stages[id].
type stageID uint8

const (
	stageQueueWait stageID = iota
	stageMemLookup
	stageDiskRead
	stagePeerFill
	stagePeerLeg
	stageCompile
	stageVerify
	stageWriteThrough
	stageBatchItem
	numStages
)

// stageDescs describe the stages: the span name, which is also the
// stage's /metrics key, and whether the stage is an artifact tier below
// memory whose hit and miss outcomes count in its stageMetrics.
var stageDescs = [numStages]struct {
	name string
	tier bool
}{{"queue_wait", false}, {"mem_lookup", false}, {"disk_read", true}, {"peer_fill", true},
	{"peer_leg", false}, {"compile", false}, {"verify", false}, {"write_through", false}, {"batch_item", false}}

// Tier outcomes: a tier produced the artifact, missed, or (memory only)
// joined a computation already in flight.
const (
	outcomeHit   = "hit"
	outcomeMiss  = "miss"
	outcomeDedup = "dedup"
)

// stage runs fn as stage id and records, in this one call, the stage's
// span (under the span ctx carries; none when the request is untraced),
// its latency histogram and — for the disk and peer tiers — the hit or
// miss counter its outcome names, so a span cannot exist without its
// metric and both time the same interval. fn receives ctx with the
// stage's span as the parent of nested stages, and returns its outcome
// ("" sets no outcome attribute). A panic in fn is recorded with outcome
// "panic" and keeps propagating.
func (s *Server) stage(ctx context.Context, id stageID, fn func(context.Context) string) {
	tr, parent := telemetry.FromContext(ctx)
	span := tr.Start(stageDescs[id].name, parent)
	start := time.Now()
	outcome := "panic"
	defer func() {
		st := &s.metrics.stages[id]
		st.latency.Observe(time.Since(start))
		if outcome != "" {
			span.SetAttr("outcome", outcome)
		}
		span.End()
		if stageDescs[id].tier {
			switch outcome {
			case outcomeHit:
				st.hits.Add(1)
			case outcomeMiss:
				st.misses.Add(1)
			}
		}
	}()
	outcome = fn(telemetry.WithSpan(ctx, tr, span))
}
