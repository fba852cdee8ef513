package server

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"ltsp/internal/telemetry"
)

// stageID names one serving stage: an instrumented step of a request —
// the worker-slot wait, each artifact tier, verification, write-through,
// a batch item, an anti-entropy exchange. Its instruments are
// Metrics.stages[id].
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
	stageSyncPeer
	numStages
)

// stageDescs describe the stages: the span name, which is also the
// stage's /metrics key, and the outcomes the stage counts in its
// stageMetrics — the disk and peer tiers' hits and misses (the memory
// tier's are the cache counters), verification failures, and failed
// peer exchanges. An outcome not listed is timed but not counted.
var stageDescs = [numStages]struct {
	name   string
	counts []string // at most len(stageMetrics.outcomes)
}{{"queue_wait", nil}, {"mem_lookup", nil}, {"disk_read", []string{outcomeHit, outcomeMiss}},
	{"peer_fill", []string{outcomeHit, outcomeMiss}}, {"peer_leg", []string{outcomeError}}, {"compile", nil},
	{"verify", []string{outcomeFailed}}, {"write_through", nil}, {"batch_item", nil}, {"sync_peer", []string{outcomeError}}}

// Stage outcomes: a tier produced the artifact, missed, or (memory only)
// joined a computation already in flight; a peer exchange failed; a
// verification rejected its kernel.
const (
	outcomeHit    = "hit"
	outcomeMiss   = "miss"
	outcomeDedup  = "dedup"
	outcomeError  = "error"
	outcomeFailed = "failed"
)

// stageMetrics is one serving stage's instruments: where a request's
// wall clock goes, which is also how many times the stage ran, and the
// counts of the outcomes its descriptor lists, in that order.
type stageMetrics struct {
	latency  Histogram
	outcomes [2]atomic.Int64
}

// stageOutcome reads the count of one of stage id's listed outcomes.
func (m *Metrics) stageOutcome(id stageID, outcome string) int64 {
	return m.stages[id].outcomes[slices.Index(stageDescs[id].counts, outcome)].Load()
}

// stage runs fn as stage id and records, in this one call, the stage's
// span (under the span ctx carries; none when the request is untraced),
// its latency histogram and — when its descriptor lists the outcome fn
// returns — that outcome's counter, so a span cannot exist without its
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
		if i := slices.Index(stageDescs[id].counts, outcome); i >= 0 {
			st.outcomes[i].Add(1)
		}
	}()
	outcome = fn(telemetry.WithSpan(ctx, tr, span))
}
