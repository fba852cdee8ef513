package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltsp/internal/buildinfo"
	"ltsp/internal/obs"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request
// latency histogram; the last bucket is +Inf.
var latencyBucketsMs = [numBounds]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

const numBounds = 13

// boundLabels are the bucket bounds as both forms print them: the JSON
// buckets' le_ keys and the Prometheus le label values.
var boundLabels = func() (out [numBounds + 1]string) {
	for i, ub := range latencyBucketsMs {
		out[i] = jsonNumber(ub)
	}
	out[numBounds] = "+Inf"
	return out
}()

// jsonNumber renders a number the way the JSON document does, so the
// text exposition prints the very same digits.
func jsonNumber(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// It keeps no separate count: the count is the bucket total, so a
// snapshot's count always equals its le_+Inf bucket.
type Histogram struct {
	sumUs   atomic.Int64 // accumulated microseconds
	buckets [numBounds + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.sumUs.Add(d.Microseconds())
	ms := float64(d) / float64(time.Millisecond)
	for i, ub := range latencyBucketsMs {
		if ms <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBucketsMs)].Add(1)
}

// histSnapshot is one read of a Histogram. Buckets are stored disjoint
// but read cumulative (the le_ convention), so the last, +Inf, is the
// count.
type histSnapshot struct {
	cum   [numBounds + 1]int64
	sumMs float64
}

func (h *Histogram) snapshot() histSnapshot {
	out := histSnapshot{sumMs: float64(h.sumUs.Load()) / 1000}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
		out.cum[i] = n
	}
	return out
}

// count is how many durations the snapshot holds.
func (h histSnapshot) count() int64 { return h.cum[numBounds] }

// jsonValue is the snapshot's /metrics JSON object. Every histogram
// shares the bucket bounds, documented once in latency_bounds_ms.
func (h histSnapshot) jsonValue() map[string]any {
	count := h.count()
	buckets := make(map[string]int64, len(h.cum))
	for i, n := range h.cum {
		buckets["le_"+boundLabels[i]] = n
	}
	mean := 0.0
	if count > 0 {
		mean = h.sumMs / float64(count)
	}
	return map[string]any{"count": count, "sum_ms": h.sumMs, "mean_ms": mean, "buckets": buckets}
}

// Metrics aggregates the service counters exposed at GET /metrics. Each
// counter no one endpoint or stage records is bumped by one atomic add
// on its field; Server.metricSet declares how each renders.
type Metrics struct {
	// BatchItems counts the loops submitted through compile batches;
	// BatchItemErrors the items that failed (the batch itself still
	// returns 200 with per-item errors).
	BatchItems      atomic.Int64
	BatchItemErrors atomic.Int64
	// Rejected counts requests turned away before doing work: queue-full,
	// oversized body, shutdown in progress, load shedding.
	Rejected atomic.Int64
	// Shed counts requests rejected by deadline-aware admission control
	// (a subset of Rejected): the shedder predicted the remaining deadline
	// could not be met, so the request was refused before consuming a
	// worker slot.
	Shed atomic.Int64
	// Timeouts counts requests abandoned at their deadline.
	Timeouts atomic.Int64
	// InFlight is the number of requests currently holding a worker slot.
	InFlight atomic.Int64

	// CacheHits counts lookups served from a completed cached artifact;
	// CacheDedups counts requests that piggybacked on an identical
	// compilation already in flight (singleflight); CacheMisses counts
	// compilations actually executed; CacheEvictions counts LRU drops.
	CacheHits      atomic.Int64
	CacheDedups    atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64

	// DiskWriteErrors are failed write-throughs (the artifact stayed
	// memory-only).
	DiskWriteErrors atomic.Int64
	// Anti-entropy layer: SyncRuns counts sync rounds (whole-membership
	// digest exchanges); SyncPulls counts artifacts pulled because a
	// replica peer held an owned key this node lacked.
	SyncRuns  atomic.Int64
	SyncPulls atomic.Int64
	// Provenance layer: ProvenanceFailures counts store entries that no
	// longer matched their provenance record and were quarantined (deleted,
	// never served); ProvenanceMismatches counts sync keys whose remote
	// checksum disagreed with this node's provenance record (config drift
	// or a poisoned peer — the entry is not pulled).
	ProvenanceFailures   atomic.Int64
	ProvenanceMismatches atomic.Int64
	// ArtifactRequests counts GET /v2/artifacts/{hash} serves (peer
	// cache-fill traffic arriving at this node). Materializations counts
	// artifacts whose program was recompiled on demand for the simulate
	// path.
	ArtifactRequests atomic.Int64
	Materializations atomic.Int64
	// Transfer byte accounting: bytes of encoded store entries served by
	// GET /v2/artifacts/{hash}, and bytes received by this node's peer
	// cache-fills. Both count the store's entry encoding, the one
	// artifact body, so they are commensurable with the storage-layer
	// sizes (store.EncodedSize).
	ArtifactBytes atomic.Int64
	PeerFillBytes atomic.Int64

	// PanicsRecovered counts panics caught at the containment boundaries
	// (compile flight, worker goroutines, batch items) and converted into
	// error envelopes instead of crashing the process.
	PanicsRecovered atomic.Int64

	// outcomes counts compilations actually executed (cache hits and
	// singleflight piggybacks do not recount) by scheduling backend and
	// pipeliner outcome: backend label -> *outcomeCounts, created on first
	// use so a newly registered backend needs no metrics change.
	outcomes sync.Map

	// PeerFillLatency observes successful peer cache-fills, first request
	// byte to verified artifact.
	PeerFillLatency Histogram

	// compile, simulate and batch are the work endpoints' instruments,
	// recorded only by ServeHTTP's epilogue (see Server.handleEndpoint).
	compile, simulate, batch endpointMetrics
	// stages are the per-stage instruments, indexed by stageID, recorded
	// on every request (traced or not), only by Server.stage.
	stages [numStages]stageMetrics
}

// endpointMetrics is one endpoint's instruments: its requests, the
// non-2xx responses among them, and their latency.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	latency  Histogram
}

// record counts one finished request with its status and duration.
func (e *endpointMetrics) record(status int, d time.Duration) {
	e.requests.Add(1)
	if status < 200 || status > 299 {
		e.errors.Add(1)
	}
	e.latency.Observe(d)
}

// outcomeNames are the obs.Outcome* results in /metrics order. Their
// labels, the JSON keys and Prometheus outcome values, spell - as _.
var outcomeNames = [...]string{obs.OutcomePipelined, obs.OutcomeReducedLatency, obs.OutcomeRaisedII, obs.OutcomeSequential}

// outcomeCounts is one backend's compile outcome counters, indexed like
// outcomeNames.
type outcomeCounts [len(outcomeNames)]atomic.Int64

// CountOutcome bumps the counter of one executed compilation's
// scheduling backend ("" is normalized to "heuristic") and obs.Outcome*
// string. The aggregate compile_outcomes is the sum over backends.
func (m *Metrics) CountOutcome(backend, outcome string) {
	i := slices.Index(outcomeNames[:], outcome)
	if i < 0 {
		return
	}
	if backend == "" {
		backend = "heuristic"
	}
	c, ok := m.outcomes.Load(backend)
	if !ok {
		c, _ = m.outcomes.LoadOrStore(backend, new(outcomeCounts))
	}
	c.(*outcomeCounts)[i].Add(1)
}

// metric is one /metrics entry, declared once with everything both
// renderings need.
type metric struct {
	path   string // JSON key path, "." between levels; "" when exposition-only
	family string // Prometheus family; "" when JSON-only
	labels string // the entry's label pairs within its family, e.g. `stage="compile"`
	kind   string // Prometheus TYPE: counter, gauge or histogram
	help   string
	value  any // int64 counter, float64 gauge, histSnapshot, or a JSON-only value
}

// metricSet is the registry: every metric of one render with its value,
// in declaration order, which is the exposition order. Both forms walk
// the same set, so a scrape's JSON and text agree exactly.
type metricSet []metric

func (ms *metricSet) add(m metric) { *ms = append(*ms, m) }

func (ms *metricSet) counter(path, family, help string, v int64) {
	ms.add(metric{path: path, family: family, kind: "counter", help: help, value: v})
}

func (ms *metricSet) gauge(path, family, help string, v float64) {
	ms.add(metric{path: path, family: family, kind: "gauge", help: help, value: v})
}

func (ms *metricSet) histogram(path, family, labels, help string, h *Histogram) {
	ms.add(metric{path: path, family: family, labels: labels, kind: "histogram", help: help, value: h.snapshot()})
}

// jsonOnly declares a JSON value with no Prometheus sample.
func (ms *metricSet) jsonOnly(path string, v any) { ms.add(metric{path: path, value: v}) }

// metricSet declares every /metrics metric and reads its value. State
// owned elsewhere — the cache, store, provenance log and cluster
// membership — is read once here per render; the disk, cluster and
// provenance sections exist only when their layer is configured.
// Histogram bounds (and so sums and means) are in milliseconds; the _ms
// family suffix makes the unit explicit.
func (s *Server) metricSet() metricSet {
	m := s.metrics
	var ms metricSet
	ms.jsonOnly("build_info.version", buildinfo.Version)
	ms.jsonOnly("build_info.go", buildinfo.GoVersion())
	ms.gauge("uptime_seconds", "ltspd_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	ms.add(metric{family: "ltspd_build_info", kind: "gauge", help: "Build metadata (value is always 1).", value: 1.0,
		labels: fmt.Sprintf("version=%q,go=%q", buildinfo.Version, buildinfo.GoVersion())})
	ms.jsonOnly("latency_bounds_ms", latencyBucketsMs[:])

	ms.counter("compile_requests", "ltspd_compile_requests_total", "Compile requests received.", m.compile.requests.Load())
	ms.counter("compile_errors", "ltspd_compile_errors_total", "Compile requests that failed.", m.compile.errors.Load())
	ms.counter("simulate_requests", "ltspd_simulate_requests_total", "Simulate requests received.", m.simulate.requests.Load())
	ms.counter("simulate_errors", "ltspd_simulate_errors_total", "Simulate requests that failed.", m.simulate.errors.Load())
	ms.counter("batch_requests", "ltspd_batch_requests_total", "Compile-batch requests received.", m.batch.requests.Load())
	ms.counter("batch_items", "ltspd_batch_items_total", "Loops submitted through compile batches.", m.BatchItems.Load())
	ms.counter("batch_item_errors", "ltspd_batch_item_errors_total", "Batch items that failed.", m.BatchItemErrors.Load())
	ms.counter("rejected", "ltspd_rejected_total", "Requests rejected before doing work.", m.Rejected.Load())
	ms.counter("shed", "ltspd_shed_total", "Requests rejected by deadline-aware admission control.", m.Shed.Load())
	ms.counter("timeouts", "ltspd_timeouts_total", "Requests abandoned at their deadline.", m.Timeouts.Load())
	ms.gauge("in_flight", "ltspd_in_flight", "Requests currently holding a worker slot.", float64(m.InFlight.Load()))

	ms.counter("cache_hits", "ltspd_cache_hits_total", "Artifact-cache hits.", m.CacheHits.Load())
	ms.counter("cache_dedups", "ltspd_cache_dedups_total", "Requests coalesced onto an in-flight compile.", m.CacheDedups.Load())
	ms.counter("cache_misses", "ltspd_cache_misses_total", "Compilations actually executed.", m.CacheMisses.Load())
	ms.counter("cache_evictions", "ltspd_cache_evictions_total", "Artifacts evicted from the memory cache.", m.CacheEvictions.Load())
	cache := s.cache.Stats()
	ms.gauge("cache_entries", "ltspd_cache_entries", "Artifacts in the memory cache.", float64(cache.Entries))
	ms.gauge("cache_bytes", "ltspd_cache_bytes", "Serialized bytes in the memory cache.", float64(cache.Bytes))
	ms.jsonOnly("cache_capacity", cache.Capacity)
	ms.counter("disk_hits", "ltspd_disk_hits_total", "Artifacts served from the persistent store.", m.stageOutcome(stageDiskRead, outcomeHit))
	ms.counter("disk_misses", "ltspd_disk_misses_total", "Persistent-store lookups that missed.", m.stageOutcome(stageDiskRead, outcomeMiss))
	ms.counter("disk_write_errors", "ltspd_disk_write_errors_total", "Failed artifact write-throughs.", m.DiskWriteErrors.Load())
	ms.counter("artifact_requests", "ltspd_artifact_requests_total", "GET /v2/artifacts serves (peer cache-fill traffic).", m.ArtifactRequests.Load())
	ms.counter("materializations", "ltspd_materializations_total", "Thin artifacts recompiled on demand.", m.Materializations.Load())
	ms.counter("artifact_bytes", "ltspd_artifact_bytes_total", "Encoded store-entry bytes served by GET /v2/artifacts.", m.ArtifactBytes.Load())
	ms.counter("peer_fill_bytes", "ltspd_peer_fill_bytes_total", "Encoded store-entry bytes received by peer cache-fills.", m.PeerFillBytes.Load())
	ms.counter("verify_runs", "ltspd_verify_runs_total", "Compilations independently verified.", m.stages[stageVerify].latency.snapshot().count())
	ms.counter("verify_failures", "ltspd_verify_failures_total", "Verifications that rejected a compilation.", m.stageOutcome(stageVerify, outcomeFailed))
	ms.counter("panics_recovered", "ltspd_panics_recovered_total", "Panics contained at a recovery boundary.", m.PanicsRecovered.Load())

	ms.outcomes(m)

	ms.histogram("compile_latency", "ltspd_compile_latency_ms", "", "Compile request latency (milliseconds).", &m.compile.latency)
	ms.histogram("simulate_latency", "ltspd_simulate_latency_ms", "", "Simulate request latency (milliseconds).", &m.simulate.latency)
	ms.histogram("batch_latency", "ltspd_batch_latency_ms", "", "Compile-batch request latency (milliseconds).", &m.batch.latency)
	for id, d := range stageDescs {
		ms.histogram("stage_latency."+d.name, "ltspd_stage_latency_ms", fmt.Sprintf("stage=%q", d.name),
			"Per-stage request latency (milliseconds), by pipeline stage.", &m.stages[id].latency)
	}

	if ring := s.ring(); ring != nil {
		ms.counter("cluster.peer_hits", "ltspd_peer_hits_total", "Artifacts obtained from a cluster peer.", m.stageOutcome(stagePeerFill, outcomeHit))
		ms.counter("cluster.peer_misses", "ltspd_peer_misses_total", "Peer cache-fills that came back empty.", m.stageOutcome(stagePeerFill, outcomeMiss))
		ms.counter("cluster.peer_errors", "ltspd_peer_errors_total", "Individual failed peer fetches.", m.stageOutcome(stagePeerLeg, outcomeError))
		ms.histogram("cluster.fill_latency", "ltspd_peer_fill_latency_ms", "", "Successful peer cache-fill latency (milliseconds).", &m.PeerFillLatency)
		ms.jsonOnly("cluster.self", s.cfg.Self)
		ms.jsonOnly("cluster.replication", s.cfg.Replication)
		alive, dead := s.health.Counts()
		ms.gauge("cluster.peers", "ltspd_cluster_peers", "Peers in the consistent-hash ring.", float64(ring.Len()))
		ms.gauge("cluster.peers_alive", "ltspd_cluster_peers_alive", "Ring peers currently considered alive.", float64(alive))
		ms.gauge("cluster.peers_dead", "ltspd_cluster_peers_dead", "Ring peers ejected by health tracking.", float64(dead))
		ms.counter("cluster.ring_swaps", "ltspd_cluster_ring_swaps_total", "Atomic ring replacements from membership changes.", int64(s.member.Swaps()))
		ms.counter("cluster.resolve_errors", "ltspd_cluster_resolve_errors_total", "Membership source resolutions that failed.", int64(s.member.ResolveErrors()))
		ms.counter("cluster.sync_runs", "ltspd_cluster_sync_runs_total", "Anti-entropy rounds run.", m.SyncRuns.Load())
		ms.counter("cluster.sync_pulls", "ltspd_cluster_sync_pulls_total", "Artifacts pulled by anti-entropy.", m.SyncPulls.Load())
		ms.counter("cluster.sync_errors", "ltspd_cluster_sync_errors_total", "Failed anti-entropy exchanges.", m.stageOutcome(stageSyncPeer, outcomeError))
	}
	if s.prov != nil {
		st := s.prov.Stats()
		ms.counter("provenance.records", "ltspd_provenance_records_total", "Records appended to the provenance chain.", int64(st.Records))
		ms.gauge("provenance.batches", "ltspd_provenance_batches", "Completed Merkle batches in the provenance chain.", float64(st.Batches))
		ms.counter("provenance.dropped", "ltspd_provenance_dropped_total", "Provenance records lost to queue overflow.", int64(st.Dropped))
		ms.counter("provenance.failures", "ltspd_provenance_failures_total", "Store entries quarantined for diverging from their provenance record.", m.ProvenanceFailures.Load())
		ms.counter("provenance.peer_mismatches", "ltspd_provenance_peer_mismatches_total", "Anti-entropy checksum disagreements with peers.", m.ProvenanceMismatches.Load())
	}
	if s.store != nil {
		st := s.store.Stats()
		ms.gauge("disk.entries", "ltspd_store_entries", "Artifacts in the persistent store.", float64(st.Entries))
		ms.gauge("disk.bytes", "ltspd_store_bytes", "Bytes in the persistent store.", float64(st.Bytes))
		ms.counter("disk.hits", "ltspd_store_hits_total", "Persistent-store reads that hit.", st.Hits)
		ms.counter("disk.misses", "ltspd_store_misses_total", "Persistent-store reads that missed.", st.Misses)
		ms.counter("disk.writes", "ltspd_store_writes_total", "Persistent-store writes.", st.Writes)
		ms.counter("disk.evictions", "ltspd_store_evictions_total", "Persistent-store budget evictions.", st.Evictions)
		ms.counter("disk.corrupt", "ltspd_store_corrupt_total", "Corrupt store files detected and deleted.", st.Corrupt)
		ms.jsonOnly("disk.scans", st.Scans)
	}
	return ms
}

// outcomes declares the compile outcome counters: per (backend,
// outcome) once a backend has compiled, and in aggregate as the sum
// over backends of the same reads.
func (ms *metricSet) outcomes(m *Metrics) {
	type backend struct {
		name string
		n    [len(outcomeNames)]int64
	}
	var backends []backend
	m.outcomes.Range(func(k, v any) bool {
		b := backend{name: k.(string)}
		for i := range b.n {
			b.n[i] = v.(*outcomeCounts)[i].Load()
		}
		backends = append(backends, b)
		return true
	})
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })
	for i, o := range outcomeNames {
		var sum int64
		for _, b := range backends {
			sum += b.n[i]
		}
		label := strings.ReplaceAll(o, "-", "_")
		ms.add(metric{"compile_outcomes." + label, "ltspd_compile_outcomes_total", fmt.Sprintf("outcome=%q", label),
			"counter", "Compilations by pipeliner outcome.", sum})
	}
	for _, b := range backends {
		for i, o := range outcomeNames {
			label := strings.ReplaceAll(o, "-", "_")
			ms.add(metric{"compile_outcomes_by_backend." + b.name + "." + label, "ltspd_compile_outcomes_by_backend_total",
				fmt.Sprintf("backend=%q,outcome=%q", b.name, label), "counter",
				"Compilations by scheduling backend and pipeliner outcome.", b.n[i]})
		}
	}
}

// jsonDoc nests the set's JSON entries by their dotted paths into the
// /metrics document.
func (ms metricSet) jsonDoc() map[string]any {
	doc := map[string]any{}
	for _, m := range ms {
		if m.path == "" {
			continue
		}
		node, key := doc, m.path
		for head, rest, ok := strings.Cut(key, "."); ok; head, rest, ok = strings.Cut(key, ".") {
			sub, _ := node[head].(map[string]any)
			if sub == nil {
				sub = map[string]any{}
				node[head] = sub
			}
			node, key = sub, rest
		}
		if h, ok := m.value.(histSnapshot); ok {
			node[key] = h.jsonValue()
		} else {
			node[key] = m.value
		}
	}
	return doc
}

// PromContentType is the Content-Type of the Prometheus text form.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPromText reports whether an Accept header negotiates the
// Prometheus text form. Anything naming text/plain (a Prometheus
// scraper's Accept always does) selects it; absent, */* or JSON keep
// the default JSON document.
func wantsPromText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if mt == "text/plain" {
			return true
		}
	}
	return false
}

// writeProm renders the set as Prometheus text exposition (format
// 0.0.4). A family's entries are declared together, so its HELP and
// TYPE print once, before its first sample.
func (ms metricSet) writeProm(w io.Writer) error {
	var b bytes.Buffer
	prev := ""
	for _, m := range ms {
		if m.family == "" {
			continue
		}
		if m.family != prev {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.family, m.help, m.family, m.kind)
			prev = m.family
		}
		h, ok := m.value.(histSnapshot)
		if !ok {
			fmt.Fprintf(&b, "%s%s %s\n", m.family, labelSet(m.labels), jsonNumber(m.value))
			continue
		}
		for i, n := range h.cum {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.family, labelSet(m.labels, `le="`+boundLabels[i]+`"`), n)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", m.family, labelSet(m.labels), jsonNumber(h.sumMs))
		fmt.Fprintf(&b, "%s_count%s %d\n", m.family, labelSet(m.labels), h.count())
	}
	_, err := w.Write(b.Bytes())
	return err
}

// labelSet joins the non-empty label pairs into a Prometheus label set
// ("" when there are none).
func labelSet(pairs ...string) string {
	joined := strings.Join(slices.DeleteFunc(pairs, func(p string) bool { return p == "" }), ",")
	if joined == "" {
		return ""
	}
	return "{" + joined + "}"
}
