package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// batchItemError renders a per-item failure with its envelope code, so a
// batch client can tell retryable items (deadline, injected faults) from
// permanently broken ones without parsing message strings.
func batchItemError(err error) wire.BatchItemResult {
	code := errCode(err, http.StatusBadRequest)
	return wire.BatchItemResult{
		Error:     err.Error(),
		ErrorCode: code,
		Retryable: wire.Retryable(code),
	}
}

// handleCompileBatch shards a batch of compile items over the server's
// bounded worker pool: every item competes for the same PoolSize slots
// as single compiles, goes through the same singleflight artifact cache,
// and lands at its request index in the response. Exact copies within
// the batch (wire.CompileBatchRequest.Distinct) are resolved once: only
// the first item of each group runs, and every later copy is answered
// with its result (see answerCopy). Cancellation is per-item: when the
// batch deadline (or the client) gives up, items still queued fail with
// code deadline_exceeded while items already running are canceled
// cooperatively — unless an identical compile is still wanted by another
// request, in which case the flight continues for them.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.BatchRequests.Add(1)
	start := time.Now()
	enc := requestEncoding(r)
	if enc == encUnknown {
		rejectMedia(w, r)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer putBody(body)
	var req wire.CompileBatchRequest
	if enc == encBinary {
		breq, err := binary.DecodeCompileBatch(body.Bytes())
		if err != nil {
			writeBinaryDecodeError(w, err)
			return
		}
		req = *breq
	} else if !decodeJSONBody(w, body.Bytes(), &req) {
		return
	}
	if err := wire.CheckVersion(req.Version); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeUnsupportedVersion, "%v", err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "empty batch")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.metrics.Rejected.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
			"batch of %d items exceeds server limit %d", len(req.Items), s.cfg.MaxBatchItems)
		return
	}
	if s.draining.Load() {
		s.metrics.Rejected.Add(1)
		writeUnavailable(w, wire.CodeDraining, s.cfg.DrainRetryAfter, "server is shutting down")
		return
	}
	s.metrics.BatchItems.Add(int64(len(req.Items)))

	// The deadline covers the whole batch: every item gets the single-
	// compile budget, amortized over the rounds the pool needs to drain
	// the batch. A client-supplied X-Request-Deadline-Ms tightens it.
	rounds := (len(req.Items) + s.cfg.PoolSize - 1) / s.cfg.PoolSize
	ctx, cancel := requestCtx(r, s.cfg.CompileTimeout*time.Duration(rounds))
	defer cancel()

	results := make([]wire.BatchItemResult, len(req.Items))
	done := make([]itemDone, len(req.Items))
	first := req.Distinct()
	reqID := requestIDFrom(ctx)
	var wg sync.WaitGroup
	for i := range req.Items {
		if first[i] != i {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The item stage covers the item's whole life — waiting for a
			// worker slot included — and its span parents the cache, peer
			// and compile stages recorded underneath it.
			s.stage(ctx, stageBatchItem, func(ictx context.Context) string {
				if tr, ispan := telemetry.FromContext(ictx); tr.On() {
					ispan.SetAttr("index", strconv.Itoa(i))
				}
				done[i] = s.batchItem(ctx, ictx, reqID, i, req.Item(i), &results[i])
				return done[i].outcome
			})
		}(i)
	}
	wg.Wait()
	for i, f := range first {
		if f != i {
			s.answerCopy(ctx, reqID, i, &results[i], results[f], done[f])
		}
	}
	resp := &wire.CompileBatchResponse{Items: results}
	if wantsBinary(r) {
		writeBinary(w, binary.EncodeCompileBatchResponse(nil, resp))
	} else {
		writeJSON(w, http.StatusOK, resp)
	}
	s.metrics.BatchLatency.Observe(time.Since(start))
}

// itemDone is how a distinct batch item ended; its copies repeat it.
type itemDone struct {
	outcome string // the batch_item stage outcome: "ok", "error" or "timeout"
	hash    string // the artifact hash, when the item got as far as one
	err     error  // the error the item's log line carries; nil on success
}

// batchItem runs one batch item on a worker slot, writing its result to
// *res, and returns how the item ended. ctx is the batch's context and
// ictx the item's, which parents the item's stages. The item's wait for
// a slot counts in the shedder's queue depth, so single requests behind
// a queued batch are shed on a truthful estimate; the item itself is
// never shed and waits out the batch deadline, not QueueTimeout, so a
// long batch's later items are not rejected for being late in line.
func (s *Server) batchItem(ctx, ictx context.Context, reqID string, i int, item *wire.CompileRequest, res *wire.BatchItemResult) itemDone {
	s.shed.Enqueue()
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	case <-ctx.Done():
	}
	s.shed.Dequeue()
	if !acquired {
		s.metrics.Timeouts.Add(1)
		s.metrics.BatchItemErrors.Add(1)
		*res = wire.BatchItemResult{
			Error:     "batch deadline exceeded waiting for a worker slot",
			ErrorCode: wire.CodeDeadlineExceeded,
			Retryable: true,
		}
		s.logBatchItem(ctx, reqID, i, "", false, ctx.Err())
		return itemDone{outcome: "timeout", err: ctx.Err()}
	}
	art, hash, cached, err := s.batchCompile(ictx, item, s.holdSlot())
	if err != nil {
		s.metrics.BatchItemErrors.Add(1)
		*res = batchItemError(err)
		s.logBatchItem(ctx, reqID, i, hash, false, err)
		return itemDone{outcome: "error", hash: hash, err: err}
	}
	*res = wire.BatchItemResult{CompileResponse: respondCompile(cached, art)}
	s.logBatchItem(ctx, reqID, i, hash, cached, nil)
	return itemDone{outcome: "ok", hash: hash}
}

// answerCopy answers item i, an exact copy of an earlier item, with that
// item's result first and how it ended. A failure is repeated with its
// code and counts as a batch item error, and as a timeout when the
// first item timed out; a success is stamped cached and counts one
// cache hit, as a hot-map serve does. The copy writes its own log line
// but records no stage or span.
func (s *Server) answerCopy(ctx context.Context, reqID string, i int, res *wire.BatchItemResult, first wire.BatchItemResult, d itemDone) {
	if d.err != nil {
		if d.outcome == "timeout" {
			s.metrics.Timeouts.Add(1)
		}
		s.metrics.BatchItemErrors.Add(1)
		*res = first
		s.logBatchItem(ctx, reqID, i, d.hash, false, d.err)
		return
	}
	s.metrics.CacheHits.Add(1)
	r := *first.CompileResponse
	r.Cached = true
	*res = wire.BatchItemResult{CompileResponse: &r}
	s.logBatchItem(ctx, reqID, i, r.Hash, true, nil)
}

// batchCompile resolves one batch item on its held worker slot,
// releasing the slot before it returns.
func (s *Server) batchCompile(ctx context.Context, item *wire.CompileRequest, held heldSlot) (art *Artifact, hash string, cached bool, err error) {
	defer held.release(&err)
	return s.compileCached(ctx, item)
}

// logBatchItem emits one log line per batch item carrying the batch's
// request ID, so per-item outcomes — including the peer-fill hops they
// caused on other nodes, which forward the same ID — correlate across
// the fleet's log streams.
func (s *Server) logBatchItem(ctx context.Context, id string, idx int, hash string, cached bool, err error) {
	if !s.logOn {
		return
	}
	if err != nil {
		s.logger.LogAttrs(ctx, slog.LevelWarn, "batch_item",
			slog.String("id", id),
			slog.Int("item", idx),
			slog.String("err", err.Error()),
		)
		return
	}
	s.logger.LogAttrs(ctx, slog.LevelInfo, "batch_item",
		slog.String("id", id),
		slog.Int("item", idx),
		slog.String("hash", hash[:min(12, len(hash))]),
		slog.Bool("cached", cached),
	)
}
