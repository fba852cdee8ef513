package server

import (
	"context"
	"time"

	"ltsp/internal/telemetry"
)

// stageID names one serving stage: an instrumented step of a request —
// the worker-slot wait, each artifact tier, verification, write-through,
// a batch item. stageNames holds the span names, which are also the
// /metrics stage_latency keys.
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

var stageNames = [numStages]string{"queue_wait", "mem_lookup", "disk_read", "peer_fill",
	"peer_leg", "compile", "verify", "write_through", "batch_item"}

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
	span := tr.Start(stageNames[id], parent)
	start := time.Now()
	outcome := "panic"
	defer func() {
		s.metrics.stages[id].Observe(time.Since(start))
		if outcome != "" {
			span.SetAttr("outcome", outcome)
		}
		span.End()
		m := s.metrics
		switch {
		case id == stageDiskRead && outcome == outcomeHit:
			m.DiskHits.Add(1)
		case id == stageDiskRead && outcome == outcomeMiss:
			m.DiskMisses.Add(1)
		case id == stagePeerFill && outcome == outcomeHit:
			m.PeerHits.Add(1)
		case id == stagePeerFill && outcome == outcomeMiss:
			m.PeerMisses.Add(1)
		}
	}()
	outcome = fn(telemetry.WithSpan(ctx, tr, span))
}
