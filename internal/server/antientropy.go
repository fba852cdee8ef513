package server

// Anti-entropy: the background convergence loop that makes the cluster
// self-healing, and the one path that copies an artifact to owners that
// never asked for it. An owner that lacks an artifact — one compiled on
// a non-owner, a node that restarted empty, or one whose arcs grew after
// a membership change — discovers what it is missing by exchanging
// compact range digests with its replica peers and pulls the artifacts
// through the ordinary (integrity-verified) artifact endpoint.
//
// The key space is partitioned into 256 buckets by the first hex byte
// of the artifact hash. A digest request names an owner; the responder
// answers with, per bucket, the count and a truncated sha256 over the
// sorted "hash checksum" lines of the entries it holds that the owner's
// ring arcs cover (checksums come from the responder's provenance
// chain, so the digests double as tamper-evidence anchors: a peer whose
// recorded checksum disagrees with ours is surfaced as a provenance
// mismatch and its copy is never pulled). Equal digests mean equal
// bucket contents — only mismatched buckets are enumerated key by key.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ltsp/internal/cluster"
	"ltsp/internal/store"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
)

// pokeSync wakes the anti-entropy loop out of turn (startup, membership
// change). Non-blocking: a pending poke coalesces with the next.
func (s *Server) pokeSync() {
	select {
	case s.syncPoke <- struct{}{}:
	default:
	}
}

// startAntiEntropy launches the background sync loop: an immediate
// first round (a restarted node reconverges without waiting out the
// interval), then one round per interval or poke.
func (s *Server) startAntiEntropy(interval time.Duration) {
	s.pokeSync()
	s.bgWait.Add(1)
	go func() {
		defer s.bgWait.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.bgStop:
				return
			case <-ticker.C:
			case <-s.syncPoke:
			}
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			rep := s.SyncOnce(ctx)
			cancel()
			if rep.Pulled > 0 || rep.Errors > 0 || rep.Mismatches > 0 {
				s.logger.Info("anti-entropy round",
					"peers", rep.Peers, "pulled", rep.Pulled,
					"mismatches", rep.Mismatches, "errors", rep.Errors)
			}
		}
	}()
}

// SyncReport summarizes one anti-entropy round.
type SyncReport struct {
	// Peers is how many replica peers were consulted.
	Peers int
	// Pulled counts artifacts fetched because a peer held an owned key
	// this node lacked.
	Pulled int
	// Mismatches counts keys whose remote provenance checksum disagreed
	// with this node's record (the remote copy is not pulled).
	Mismatches int
	// Errors counts failed digest/key/pull exchanges.
	Errors int
}

// SyncOnce runs one anti-entropy round synchronously: for every eligible
// peer, compare per-bucket digests of the keys this node owns, enumerate
// mismatched buckets, and pull missing artifacts. Embedders and tests
// call it directly; the background loop calls it on its schedule.
func (s *Server) SyncOnce(ctx context.Context) SyncReport {
	var rep SyncReport
	ring := s.ring()
	if ring == nil || s.store == nil {
		return rep
	}
	s.metrics.SyncRuns.Add(1)
	tr := telemetry.New("")
	root := tr.Start("anti_entropy", nil)
	local := s.syncBuckets(ring, s.cfg.Self)
	for _, p := range ring.Peers() {
		if p.ID == s.cfg.Self || !s.health.Eligible(p.ID) {
			continue
		}
		rep.Peers++
		pspan := tr.Start("sync_peer", root)
		pspan.SetAttr("peer", p.ID)
		pulled, mism, err := s.syncWithPeer(ctx, p, local, tr, pspan)
		rep.Pulled += pulled
		rep.Mismatches += mism
		if err != nil {
			rep.Errors++
			s.metrics.SyncErrors.Add(1)
			if ctx.Err() == nil {
				s.health.ReportFailure(p.ID)
			}
			pspan.SetAttr("outcome", "error")
			s.logger.Debug("anti-entropy exchange failed", "peer", p.ID, "err", err)
		} else {
			s.health.ReportSuccess(p.ID)
			pspan.SetAttr("outcome", "ok")
		}
		pspan.SetAttr("pulled", strconv.Itoa(pulled))
		pspan.End()
	}
	root.SetAttr("pulled", strconv.Itoa(rep.Pulled))
	root.End()
	status := http.StatusOK
	if rep.Errors > 0 {
		status = http.StatusBadGateway
	}
	tr.Finish("anti_entropy", status)
	s.traces.Record(tr)
	return rep
}

// syncWithPeer compares digests with one peer and pulls what is missing.
func (s *Server) syncWithPeer(ctx context.Context, p cluster.Peer, local map[int]wire.SyncBucket, tr *telemetry.Trace, parent *telemetry.Span) (pulled, mismatches int, err error) {
	remote, err := s.fetchSyncDigest(ctx, p, s.cfg.Self)
	if err != nil {
		return 0, 0, err
	}
	if remote.Replication != 0 && remote.Replication != s.cfg.Replication {
		s.logger.Warn("replication config drift", "peer", p.ID,
			"theirs", remote.Replication, "ours", s.cfg.Replication)
	}
	var firstErr error
	for _, rb := range remote.Buckets {
		if lb, ok := local[rb.Bucket]; ok && lb.Digest == rb.Digest {
			continue
		}
		keys, kerr := s.fetchSyncKeys(ctx, p, s.cfg.Self, rb.Bucket)
		if kerr != nil {
			if firstErr == nil {
				firstErr = kerr
			}
			continue
		}
		for _, k := range keys.Keys {
			if !store.ValidHash(k.Hash) {
				continue
			}
			if s.store.Contains(k.Hash) {
				// Both sides hold the key; when both sides also pinned it
				// in their provenance chains and the pins disagree, one of
				// the copies has been rewritten — surface it, pull nothing.
				if ours, ok := s.prov.Latest(k.Hash); ok && k.Checksum != "" && ours != k.Checksum {
					mismatches++
					s.metrics.ProvenanceMismatches.Add(1)
					s.logger.Warn("provenance disagreement with peer",
						"hash", k.Hash[:12], "peer", p.ID,
						"ours", ours[:min(12, len(ours))], "theirs", k.Checksum[:min(12, len(k.Checksum))])
				}
				continue
			}
			e, ferr := s.fetchArtifact(telemetry.WithSpan(ctx, tr, parent), p, k.Hash)
			if ferr != nil || e == nil {
				if ferr != nil && firstErr == nil {
					firstErr = ferr
				}
				continue
			}
			size := s.persist(e, store.SourceAntiEntropy)
			if a, aerr := newArtifact(e, nil, size); aerr == nil {
				s.cache.Add(k.Hash, a)
			}
			pulled++
			s.metrics.SyncPulls.Add(1)
		}
	}
	return pulled, mismatches, firstErr
}

// syncBuckets digests the keys owner's ring arcs cover, out of this
// node's persistent store, into the 256-bucket form the sync endpoints
// exchange. Only non-empty buckets appear.
func (s *Server) syncBuckets(ring *cluster.Ring, owner string) map[int]wire.SyncBucket {
	lines := make(map[int][]string)
	for _, hash := range s.store.Keys() {
		if !ring.IsOwner(owner, hash, s.cfg.Replication) {
			continue
		}
		b, ok := bucketOf(hash)
		if !ok {
			continue
		}
		sum, _ := s.prov.Latest(hash)
		lines[b] = append(lines[b], hash+" "+sum)
	}
	out := make(map[int]wire.SyncBucket, len(lines))
	for b, ls := range lines {
		sort.Strings(ls)
		h := sha256.New()
		for _, l := range ls {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		out[b] = wire.SyncBucket{
			Bucket: b,
			Count:  len(ls),
			Digest: hex.EncodeToString(h.Sum(nil)[:16]),
		}
	}
	return out
}

// bucketOf maps an artifact hash to its digest bucket (first hex byte).
func bucketOf(hash string) (int, bool) {
	if len(hash) < 2 {
		return 0, false
	}
	b, err := strconv.ParseUint(hash[:2], 16, 8)
	if err != nil {
		return 0, false
	}
	return int(b), true
}

// handleSyncDigest serves GET /v2/sync/digest?owner=ID: the per-bucket
// digests of the artifacts this node holds on the owner's arcs, plus
// this node's provenance chain anchors.
func (s *Server) handleSyncDigest(w http.ResponseWriter, r *http.Request) {
	ring := s.ring()
	if ring == nil || s.store == nil {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, "sync: cluster mode or persistence disabled")
		return
	}
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		owner = s.cfg.Self
	}
	buckets := s.syncBuckets(ring, owner)
	resp := &wire.SyncDigestResponse{
		Version:     wire.Version,
		Self:        s.cfg.Self,
		Owner:       owner,
		Replication: s.cfg.Replication,
	}
	for _, b := range buckets {
		resp.Buckets = append(resp.Buckets, b)
	}
	sort.Slice(resp.Buckets, func(i, j int) bool { return resp.Buckets[i].Bucket < resp.Buckets[j].Bucket })
	if s.prov != nil {
		resp.ProvenanceSeq, resp.ProvenanceHead = s.prov.Head()
		resp.ProvenanceRoot, resp.ProvenanceN = s.prov.LatestRoot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSyncKeys serves GET /v2/sync/keys?owner=ID&bucket=N: the keys
// behind one digest bucket, each with its provenance-pinned checksum.
func (s *Server) handleSyncKeys(w http.ResponseWriter, r *http.Request) {
	ring := s.ring()
	if ring == nil || s.store == nil {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, "sync: cluster mode or persistence disabled")
		return
	}
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		owner = s.cfg.Self
	}
	bucket, err := strconv.Atoi(r.URL.Query().Get("bucket"))
	if err != nil || bucket < 0 || bucket > 255 {
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "sync: bucket must be 0..255")
		return
	}
	resp := &wire.SyncKeysResponse{
		Version: wire.Version,
		Self:    s.cfg.Self,
		Owner:   owner,
		Bucket:  bucket,
	}
	for _, hash := range s.store.Keys() {
		if b, ok := bucketOf(hash); !ok || b != bucket {
			continue
		}
		if !ring.IsOwner(owner, hash, s.cfg.Replication) {
			continue
		}
		sum, _ := s.prov.Latest(hash)
		resp.Keys = append(resp.Keys, wire.SyncKey{Hash: hash, Checksum: sum})
	}
	sort.Slice(resp.Keys, func(i, j int) bool { return resp.Keys[i].Hash < resp.Keys[j].Hash })
	writeJSON(w, http.StatusOK, resp)
}

// handleProvenance serves GET /v2/provenance/{hash}: the artifact's
// recorded creation history, the node's chain anchors, and whether the
// current store entry still matches its record. Asking actively
// quarantines a diverged entry (the check runs through storeGet).
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.prov == nil {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, "provenance: disabled on this node")
		return
	}
	checksum, ok := s.prov.Latest(hash)
	if !ok {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, "provenance: no record for %s", hash)
		return
	}
	resp := &wire.ProvenanceResponse{
		Version:  wire.Version,
		Hash:     hash,
		Self:     s.cfg.Self,
		Checksum: checksum,
	}
	for _, rec := range s.prov.Records(hash) {
		resp.Records = append(resp.Records, wire.ProvenanceRecordJSON{
			Seq: rec.Seq, TimeUnix: rec.TimeUnix, Source: rec.Source,
			Checksum: rec.Checksum, Prev: rec.Prev, Sum: rec.Sum,
		})
	}
	if s.store != nil {
		switch _, _, err := s.storeGet(hash); {
		case err == nil:
			resp.Present, resp.Consistent = true, true
		case errors.Is(err, store.ErrCorrupt):
			// The entry existed but diverged from its record — this very
			// request quarantined it.
			resp.Present, resp.Consistent = true, false
		}
	}
	resp.HeadSeq, resp.HeadSum = s.prov.Head()
	resp.Root, resp.RootsLen = s.prov.LatestRoot()
	writeJSON(w, http.StatusOK, resp)
}

// fetchSyncDigest asks one peer for its digest of the owner's keys.
func (s *Server) fetchSyncDigest(ctx context.Context, p cluster.Peer, owner string) (*wire.SyncDigestResponse, error) {
	url := strings.TrimRight(p.Addr, "/") + "/v2/sync/digest?owner=" + owner
	var resp wire.SyncDigestResponse
	if err := s.getJSON(ctx, p, url, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// fetchSyncKeys asks one peer for the keys behind one digest bucket.
func (s *Server) fetchSyncKeys(ctx context.Context, p cluster.Peer, owner string, bucket int) (*wire.SyncKeysResponse, error) {
	url := strings.TrimRight(p.Addr, "/") + "/v2/sync/keys?owner=" + owner + "&bucket=" + strconv.Itoa(bucket)
	var resp wire.SyncKeysResponse
	if err := s.getJSON(ctx, p, url, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// getJSON performs one peer GET and decodes the JSON document.
func (s *Server) getJSON(ctx context.Context, p cluster.Peer, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("peer %s: status %d", p.ID, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
