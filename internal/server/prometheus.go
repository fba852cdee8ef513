package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rendered from
// the same metricsJSON snapshot the JSON form serves — both forms are
// built from one snapshot per scrape, so their counts and sums agree
// exactly. GET /metrics negotiates it on Accept: text/plain (which a
// Prometheus scraper always sends); JSON stays the default.

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

// promWriter accumulates exposition lines, remembering the first write
// error so call sites stay linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// counter emits one counter family.
func (p *promWriter) counter(name, help string, v int64) {
	p.printf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// gauge emits one gauge family.
func (p *promWriter) gauge(name, help string, v float64) {
	p.printf("# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatBound(v))
}

// histogram emits one histogram family, optionally with a fixed label
// pair on every sample (the per-stage family keys its histograms by a
// stage label). The cumulative bucket counts come straight from the
// snapshot's le_ map — the very numbers the JSON form reports.
func (p *promWriter) histogram(name, help, labelKey, labelVal string, h histogramJSON, first bool) {
	if first {
		p.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	label := func(extra string) string {
		switch {
		case labelKey == "" && extra == "":
			return ""
		case labelKey == "":
			return "{" + extra + "}"
		case extra == "":
			return fmt.Sprintf("{%s=%q}", labelKey, labelVal)
		default:
			return fmt.Sprintf("{%s=%q,%s}", labelKey, labelVal, extra)
		}
	}
	for _, ub := range latencyBucketsMs {
		b := formatBound(ub)
		p.printf("%s_bucket%s %d\n", name, label(`le="`+b+`"`), h.Buckets["le_"+b])
	}
	p.printf("%s_bucket%s %d\n", name, label(`le="+Inf"`), h.Buckets["le_+Inf"])
	p.printf("%s_sum%s %s\n", name, label(""), formatBound(h.SumMs))
	p.printf("%s_count%s %d\n", name, label(""), h.Count)
}

// outcomePair is one compile outcome counter with its label value.
type outcomePair struct {
	k string
	v int64
}

// pairs lists the outcome counters under their obs.Outcome* labels.
func (o outcomesJSON) pairs() [4]outcomePair {
	return [4]outcomePair{{"pipelined", o.Pipelined}, {"fallback_reduced_latency", o.ReducedLatency},
		{"fallback_raised_ii", o.RaisedII}, {"sequential", o.Sequential}}
}

// writePrometheus renders the full snapshot. Histogram bounds (and so
// the le labels, sums and means) are in milliseconds, matching the
// JSON document's latency_bounds_ms; the _ms suffix on every family
// makes the unit explicit.
func writePrometheus(w io.Writer, m *metricsJSON) error {
	p := &promWriter{w: w}

	p.gauge("ltspd_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	p.printf("# HELP ltspd_build_info Build metadata (value is always 1).\n"+
		"# TYPE ltspd_build_info gauge\nltspd_build_info{version=%q,go=%q} 1\n",
		m.BuildInfo.Version, m.BuildInfo.Go)

	p.counter("ltspd_compile_requests_total", "Compile requests received.", m.CompileRequests)
	p.counter("ltspd_compile_errors_total", "Compile requests that failed.", m.CompileErrors)
	p.counter("ltspd_simulate_requests_total", "Simulate requests received.", m.SimulateRequests)
	p.counter("ltspd_simulate_errors_total", "Simulate requests that failed.", m.SimulateErrors)
	p.counter("ltspd_batch_requests_total", "Compile-batch requests received.", m.BatchRequests)
	p.counter("ltspd_batch_items_total", "Loops submitted through compile batches.", m.BatchItems)
	p.counter("ltspd_batch_item_errors_total", "Batch items that failed.", m.BatchItemErrors)
	p.counter("ltspd_rejected_total", "Requests rejected before doing work.", m.Rejected)
	p.counter("ltspd_shed_total", "Requests rejected by deadline-aware admission control.", m.Shed)
	p.counter("ltspd_timeouts_total", "Requests abandoned at their deadline.", m.Timeouts)
	p.gauge("ltspd_in_flight", "Requests currently holding a worker slot.", float64(m.InFlight))

	p.counter("ltspd_cache_hits_total", "Artifact-cache hits.", m.CacheHits)
	p.counter("ltspd_cache_dedups_total", "Requests coalesced onto an in-flight compile.", m.CacheDedups)
	p.counter("ltspd_cache_misses_total", "Compilations actually executed.", m.CacheMisses)
	p.counter("ltspd_cache_evictions_total", "Artifacts evicted from the memory cache.", m.CacheEvictions)
	p.gauge("ltspd_cache_entries", "Artifacts in the memory cache.", float64(m.CacheEntries))
	p.gauge("ltspd_cache_bytes", "Serialized bytes in the memory cache.", float64(m.CacheBytes))
	p.counter("ltspd_disk_hits_total", "Artifacts served from the persistent store.", m.DiskHits)
	p.counter("ltspd_disk_misses_total", "Persistent-store lookups that missed.", m.DiskMisses)
	p.counter("ltspd_disk_write_errors_total", "Failed artifact write-throughs.", m.DiskWriteErrors)
	p.counter("ltspd_artifact_requests_total", "GET /v2/artifacts serves (peer cache-fill traffic).", m.ArtifactRequests)
	p.counter("ltspd_materializations_total", "Thin artifacts recompiled on demand.", m.Materializations)
	p.printf("# HELP ltspd_artifact_bytes_total Artifact envelope bytes served, by negotiated wire encoding.\n" +
		"# TYPE ltspd_artifact_bytes_total counter\n")
	p.printf("ltspd_artifact_bytes_total{encoding=\"json\"} %d\n", m.ArtifactBytesJSON)
	p.printf("ltspd_artifact_bytes_total{encoding=\"binary\"} %d\n", m.ArtifactBytesBinary)
	p.printf("# HELP ltspd_peer_fill_bytes_total Artifact envelope bytes received by peer cache-fills, by wire encoding.\n" +
		"# TYPE ltspd_peer_fill_bytes_total counter\n")
	p.printf("ltspd_peer_fill_bytes_total{encoding=\"json\"} %d\n", m.PeerBytesJSON)
	p.printf("ltspd_peer_fill_bytes_total{encoding=\"binary\"} %d\n", m.PeerBytesBinary)
	p.counter("ltspd_verify_runs_total", "Compilations independently verified.", m.VerifyRuns)
	p.counter("ltspd_verify_failures_total", "Verifications that rejected a compilation.", m.VerifyFailures)
	p.counter("ltspd_panics_recovered_total", "Panics contained at a recovery boundary.", m.PanicsRecovered)

	p.printf("# HELP ltspd_compile_outcomes_total Compilations by pipeliner outcome.\n" +
		"# TYPE ltspd_compile_outcomes_total counter\n")
	for _, kv := range m.CompileOutcomes.pairs() {
		p.printf("ltspd_compile_outcomes_total{outcome=%q} %d\n", kv.k, kv.v)
	}
	if len(m.CompileOutcomesByBackend) > 0 {
		p.printf("# HELP ltspd_compile_outcomes_by_backend_total Compilations by scheduling backend and pipeliner outcome.\n" +
			"# TYPE ltspd_compile_outcomes_by_backend_total counter\n")
		backends := make([]string, 0, len(m.CompileOutcomesByBackend))
		for b := range m.CompileOutcomesByBackend {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		for _, b := range backends {
			for _, kv := range m.CompileOutcomesByBackend[b].pairs() {
				p.printf("ltspd_compile_outcomes_by_backend_total{backend=%q,outcome=%q} %d\n", b, kv.k, kv.v)
			}
		}
	}

	p.histogram("ltspd_compile_latency_ms", "Compile request latency (milliseconds).", "", "", m.CompileLatency, true)
	p.histogram("ltspd_simulate_latency_ms", "Simulate request latency (milliseconds).", "", "", m.SimulateLatency, true)
	p.histogram("ltspd_batch_latency_ms", "Compile-batch request latency (milliseconds).", "", "", m.BatchLatency, true)

	for i, name := range stageNames {
		p.histogram("ltspd_stage_latency_ms", "Per-stage request latency (milliseconds), by pipeline stage.",
			"stage", name, m.Stages[name], i == 0)
	}

	if m.Cluster != nil {
		p.counter("ltspd_peer_hits_total", "Artifacts obtained from a cluster peer.", m.Cluster.PeerHits)
		p.counter("ltspd_peer_misses_total", "Peer cache-fills that came back empty.", m.Cluster.PeerMisses)
		p.counter("ltspd_peer_errors_total", "Individual failed peer fetches.", m.Cluster.PeerErrors)
		p.histogram("ltspd_peer_fill_latency_ms", "Successful peer cache-fill latency (milliseconds).",
			"", "", m.Cluster.FillLatency, true)
		p.gauge("ltspd_cluster_peers", "Peers in the consistent-hash ring.", float64(m.Cluster.Peers))
		p.gauge("ltspd_cluster_peers_alive", "Ring peers currently considered alive.", float64(m.Cluster.PeersAlive))
		p.gauge("ltspd_cluster_peers_dead", "Ring peers ejected by health tracking.", float64(m.Cluster.PeersDead))
		p.counter("ltspd_cluster_ring_swaps_total", "Atomic ring replacements from membership changes.", m.Cluster.RingSwaps)
		p.counter("ltspd_cluster_resolve_errors_total", "Membership source resolutions that failed.", m.Cluster.ResolveErrors)
		p.counter("ltspd_cluster_repair_runs_total", "Read-repair rounds launched.", m.Cluster.RepairRuns)
		p.counter("ltspd_cluster_repair_pushes_total", "Artifacts pushed to under-replicated peers.", m.Cluster.RepairPushes)
		p.counter("ltspd_cluster_repair_skipped_total", "Read-repair probes that found the replica already present.", m.Cluster.RepairSkipped)
		p.counter("ltspd_cluster_repair_dropped_total", "Read-repair rounds dropped by the token budget.", m.Cluster.RepairDropped)
		p.counter("ltspd_cluster_repair_errors_total", "Failed read-repair probes or pushes.", m.Cluster.RepairErrors)
		p.counter("ltspd_cluster_sync_runs_total", "Anti-entropy rounds run.", m.Cluster.SyncRuns)
		p.counter("ltspd_cluster_sync_pulls_total", "Artifacts pulled by anti-entropy.", m.Cluster.SyncPulls)
		p.counter("ltspd_cluster_sync_errors_total", "Failed anti-entropy exchanges.", m.Cluster.SyncErrors)
	}
	if m.Provenance != nil {
		p.counter("ltspd_provenance_records_total", "Records appended to the provenance chain.", m.Provenance.Records)
		p.gauge("ltspd_provenance_batches", "Completed Merkle batches in the provenance chain.", float64(m.Provenance.Batches))
		p.counter("ltspd_provenance_dropped_total", "Provenance records lost to queue overflow.", m.Provenance.Dropped)
		p.counter("ltspd_provenance_failures_total", "Store entries quarantined for diverging from their provenance record.", m.Provenance.Failures)
		p.counter("ltspd_provenance_peer_mismatches_total", "Anti-entropy checksum disagreements with peers.", m.Provenance.PeerMismatches)
	}
	if m.Disk != nil {
		p.gauge("ltspd_store_entries", "Artifacts in the persistent store.", float64(m.Disk.Entries))
		p.gauge("ltspd_store_bytes", "Bytes in the persistent store.", float64(m.Disk.Bytes))
		p.counter("ltspd_store_hits_total", "Persistent-store reads that hit.", m.Disk.Hits)
		p.counter("ltspd_store_misses_total", "Persistent-store reads that missed.", m.Disk.Misses)
		p.counter("ltspd_store_writes_total", "Persistent-store writes.", m.Disk.Writes)
		p.counter("ltspd_store_evictions_total", "Persistent-store budget evictions.", m.Disk.Evictions)
		p.counter("ltspd_store_corrupt_total", "Corrupt store files detected and deleted.", m.Disk.Corrupt)
	}
	return p.err
}
