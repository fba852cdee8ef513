package server

// Cluster mode: consistent-hash ownership of loop hashes across ltspd
// peers, with peer cache-fill over the wire protocol.
//
// Every peer (and every fleet-aware client) builds the same hash ring
// from the shared peer list, so each loop hash has a deterministic
// replica set. A node that receives a compile request for a hash it does
// not own asks the owners for the finished artifact — GET
// /v2/artifacts/{hash} — before compiling locally. The lookup is hedged
// across the replica set (staggered by PeerHedgeDelay, failing over
// immediately on error) and bounded by PeerTimeout; it runs inside the
// refcounted singleflight flight, so concurrent identical requests share
// one lookup, a slow peer never blocks past the budget (the node just
// compiles locally), and an abandoned flight cancels the lookup.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ltsp"
	"ltsp/internal/cluster"
	"ltsp/internal/store"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
)

// peerFill asks the replica set that owns hash for the finished
// artifact, hedged and bounded. It returns nil when no peer had it (or
// none answered in time) — the caller then compiles locally. ctx is the
// flight context: it ends when every waiter has given up, and carries
// the originating request's ID and trace. Each hedged leg runs as a
// peer_leg stage — span with peer ID, hedge index and outcome — and
// forwards the request ID plus the trace headers so the peer's logs and
// spans stitch to this request.
func (s *Server) peerFill(ctx context.Context, ring *cluster.Ring, hash string) *store.Entry {
	owners := ring.Owners(hash, s.cfg.Replication)
	targets := make([]cluster.Peer, 0, len(owners))
	for _, p := range owners {
		// Known-dead replicas are skipped outright — a hedged leg against
		// a peer that failed its last FailThreshold requests only burns the
		// hedge budget. Eligible grants a dead peer one trial request once
		// its backoff expires, which is how it earns probation back.
		if p.ID != s.cfg.Self && s.health.Eligible(p.ID) {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil // every replica is dead (or this node is the set)
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	start := time.Now()

	type result struct {
		e   *store.Entry
		err error
	}
	// Buffered to the fan-out width so a late responder never blocks:
	// every launched goroutine can complete its send and exit even after
	// peerFill has returned.
	results := make(chan result, len(targets))
	launched := 0
	launch := func() {
		p := targets[launched]
		leg := launched
		launched++
		go func() {
			var r result
			s.stage(ctx, stagePeerLeg, func(lctx context.Context) string {
				if tr, lspan := telemetry.FromContext(lctx); tr.On() {
					lspan.SetAttr("peer", p.ID)
					lspan.SetAttr("hedge", strconv.Itoa(leg))
				}
				r.e, r.err = s.fetchArtifact(lctx, p, hash)
				// Health accounting: a completed exchange (hit or clean
				// miss) is a success; a transport/status failure counts
				// toward ejection — unless the flight context ended, which
				// says nothing about the peer.
				if r.err != nil {
					if ctx.Err() == nil {
						s.health.ReportFailure(p.ID)
					}
					return "error"
				}
				s.health.ReportSuccess(p.ID)
				if r.e == nil {
					return outcomeMiss
				}
				return outcomeHit
			})
			results <- r
		}()
	}
	launch()
	hedge := time.NewTimer(s.cfg.PeerHedgeDelay)
	defer hedge.Stop()

	for pending := 1; pending > 0; {
		select {
		case <-hedge.C:
			// The current leader is slow: hedge to the next replica.
			if launched < len(targets) {
				pending++
				launch()
				hedge.Reset(s.cfg.PeerHedgeDelay)
			}
		case r := <-results:
			pending--
			if r.err == nil && r.e != nil {
				s.metrics.PeerFillLatency.Observe(time.Since(start))
				return r.e
			}
			if r.err != nil {
				s.metrics.PeerErrors.Add(1)
				s.logger.Debug("peer artifact fetch failed", "hash", hash[:12], "err", r.err)
			}
			// A definitive miss or error fails over immediately — no
			// point waiting out the hedge stagger.
			if launched < len(targets) {
				pending++
				launch()
			}
		case <-ctx.Done():
			// Budget exhausted (or every waiter gave up): compile locally.
			return nil
		}
	}
	return nil
}

// fetchArtifact retrieves one artifact from one peer. A clean 404
// (the peer does not have it) returns (nil, nil); anything else that
// isn't a valid artifact is an error. The request ID and trace context
// ctx carries (when present) ride along as headers, so the peer's log
// lines carry the same ID and its spans nest under the current span.
func (s *Server) fetchArtifact(ctx context.Context, p cluster.Peer, hash string) (*store.Entry, error) {
	url := strings.TrimRight(p.Addr, "/") + "/v2/artifacts/" + hash
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(wire.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	if reqID := requestIDFrom(ctx); reqID != "" {
		req.Header.Set(wire.RequestIDHeader, reqID)
	}
	if tr, leg := telemetry.FromContext(ctx); tr.On() {
		req.Header.Set(wire.TraceHeader, tr.ID())
		if id := leg.ID(); id != "" {
			req.Header.Set(wire.ParentSpanHeader, id)
		}
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: status %d", p.ID, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	// Trust but verify the transfer: the entry must pass every check a
	// disk read does — lengths, the request hashing to the key we asked
	// for, the section checksum — and carry valid JSON sections, or the
	// fill is poisoning the cache.
	e, err := store.DecodeEntry(hash, data)
	if err == nil {
		err = e.CheckJSON()
	}
	if err != nil {
		return nil, fmt.Errorf("peer %s: artifact %s: %v", p.ID, hash[:12], err)
	}
	s.metrics.PeerFillBytes.Add(int64(len(data)))
	return e, nil
}

// persist writes an entry through to the disk store, best-effort: a
// failed write is logged and the artifact stays memory-only. source
// names how the entry came to exist (store.SourceCompile, peer fill,
// anti-entropy); every successful write is recorded in the provenance
// chain under it, pinning the entry's checksum. Owners that lack the
// entry pull it from the store on their next anti-entropy round. It
// returns the bytes written, 0 when nothing was.
func (s *Server) persist(e *store.Entry, source string) int64 {
	if s.store == nil {
		return 0
	}
	size, err := s.store.Put(e)
	if err != nil {
		s.metrics.DiskWriteErrors.Add(1)
		s.logger.Warn("artifact persist failed", "hash", e.Hash[:12], "err", err)
		return 0
	}
	// Put stamped e.Checksum; the provenance record pins it.
	s.prov.Append(e.Hash, source, e.Checksum)
	return size
}

// handleArtifact serves the encoded store entry for a hash: the
// peer cache-fill endpoint (and a useful introspection surface). Reads
// go through Peek/store without perturbing LRU order of the compile
// path's metrics.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.metrics.ArtifactRequests.Add(1)
	if art, ok := s.cache.Peek(hash); ok {
		s.writeArtifact(w, art.Entry)
		return
	}
	if s.store != nil {
		if e, _, err := s.storeGet(hash); err == nil {
			s.writeArtifact(w, e)
			return
		}
	}
	writeError(w, http.StatusNotFound, wire.CodeNotFound, "artifact: %v", errUnknownArtifact)
}

// writeArtifact serves an entry's encoding, the one artifact body: a
// disk hit's file bytes as read, whatever the request's Accept header.
func (s *Server) writeArtifact(w http.ResponseWriter, e *store.Entry) {
	body := e.Encode()
	s.metrics.ArtifactBytes.Add(int64(len(body)))
	w.Header().Set("Content-Type", store.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// materialize recompiles an artifact's canonical request so the
// executable program exists in this process (the simulate path needs
// it), upgrading the cache entry. It runs the same compile step
// as the compile flight — compile stage, panic containment, repro
// capture — but the recompilation is not a new compilation decision: the
// artifact's stored response stays authoritative, so it is neither
// re-verified nor counted in the compile outcome counters. Concurrent
// materializations of the same hash waste at most one compile each;
// they converge on identical programs (compilation is deterministic).
func (s *Server) materialize(ctx context.Context, hash string, art *Artifact) (*ltsp.Compiled, error) {
	var creq wire.CompileRequest
	if err := json.Unmarshal(art.Entry.Request, &creq); err != nil {
		return nil, &codedError{wire.CodeInternal, fmt.Errorf("stored request undecodable: %v", err)}
	}
	d, err := creq.Decode()
	if err != nil {
		return nil, &codedError{wire.CodeInternal, fmt.Errorf("stored request undecodable: %v", err)}
	}
	c, _, err := s.compileStep(ctx, d, false)
	if err != nil {
		return nil, err
	}
	full := *art
	full.Compiled = c
	s.cache.Add(hash, &full)
	s.metrics.Materializations.Add(1)
	return c, nil
}
