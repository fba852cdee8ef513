// Package server implements ltspd, the HTTP compile-and-simulate service
// around the latency-tolerant software pipeliner.
//
// Endpoints:
//
//	POST /v2/compile  — wire.CompileRequest body; compiles the loop (or
//	                    serves it from the artifact cache) and returns the
//	                    II/stage structure, per-load reports, register
//	                    footprint, kernel listing and the artifact hash.
//	POST /v2/compile-batch — wire.CompileBatchRequest body; shards a list
//	                    of compile items over the bounded worker pool with
//	                    per-item singleflight cache hits, returning results
//	                    (or per-item errors) in request order.
//	POST /v2/simulate — wire.SimulateRequest body; simulates a compiled
//	                    artifact (by hash, or compiling inline through the
//	                    same cache) for a trip count and returns cycles
//	                    with full Fig.-10 stall accounting.
//	GET  /v2/artifacts/{hash} — the artifact in the store's entry encoding
//	                    (store.ContentType, whatever Accept says): the peer
//	                    cache-fill and anti-entropy transfer body.
//	GET  /v2/artifacts/{hash}/trace — the pipeliner's decision trace for a
//	                    cached artifact: load classifications, II search,
//	                    fallback rungs, register allocation, outcome.
//	GET  /healthz     — liveness plus the build version.
//	GET  /metrics     — expvar-style JSON counters, latency histograms,
//	                    pipeliner outcome counters, uptime and build info.
//
// Every error response is the JSON envelope
// {"error":{"code","message","retryable"}} (see package wire). Resilience
// behaviors:
//
//   - Deadline propagation: the effective deadline is the server's
//     per-endpoint timeout tightened by the client's X-Request-Deadline-Ms
//     header; it flows through the worker pool into the pipeliner's II
//     search, which cancels cooperatively — a timed-out or abandoned
//     request stops burning CPU instead of finishing in the background.
//   - Admission control: a load shedder predicts the queueing delay from
//     queue depth x observed median service time and rejects requests
//     whose remaining deadline cannot be met with 503 + Retry-After,
//     before they consume a worker slot.
//   - Graceful drain: after Shutdown begins, new work is rejected with
//     503 (code "draining") + Retry-After while in-flight work finishes.
//
// Identical compile requests are deduplicated in flight and their
// artifacts cached under the canonical content hash (see package wire);
// an in-flight compilation is canceled only when every request waiting
// on it has given up, which is what makes client-side hedging safe.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"runtime/debug"

	"ltsp"
	"ltsp/internal/buildinfo"
	"ltsp/internal/cluster"
	"ltsp/internal/ir"
	"ltsp/internal/obs"
	"ltsp/internal/repro"
	"ltsp/internal/sim"
	"ltsp/internal/store"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// Config parameterizes a Server.
type Config struct {
	// PoolSize bounds concurrently executing compile/simulate work
	// (default 4).
	PoolSize int
	// CacheCapacity bounds the artifact cache (default 256 artifacts).
	CacheCapacity int
	// CompileTimeout / SimulateTimeout are per-request deadlines
	// (defaults 10s / 30s).
	CompileTimeout  time.Duration
	SimulateTimeout time.Duration
	// QueueTimeout bounds how long a request waits for a worker slot
	// before being rejected (default: the request's deadline).
	QueueTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchItems bounds the number of loops in one compile-batch
	// request (default 64).
	MaxBatchItems int
	// MaxTrip bounds simulated trip counts (default 10M iterations).
	MaxTrip int64
	// ShedDisabled turns off deadline-aware admission control (the load
	// shedder). Shedding is on by default; the uncontended admit check
	// costs a few nanoseconds (gated by cmd/benchguard).
	ShedDisabled bool
	// DrainRetryAfter is the Retry-After hint on 503 responses while the
	// server is draining (default 1s).
	DrainRetryAfter time.Duration
	// VerifySample is the fraction of executed compilations put through
	// independent verification (structural schedule checks plus the
	// semantic differential oracle; see package verify). 0 means
	// DefaultVerifySample; negative disables sampling; >= 1 verifies every
	// compilation. Sampling is deterministic (every ~1/rate-th compile),
	// not random, so tests and replay runs are reproducible.
	VerifySample float64
	// ReproDir, when non-empty, is where compiler panics and verification
	// failures are written as minimized replayable bundles (package
	// repro). Empty disables bundle capture.
	ReproDir string
	// Store, when non-nil, is the persistent content-addressed artifact
	// store layered under the in-memory cache: every executed compilation
	// is written through, and cache misses are served from disk without
	// recompiling, so the daemon warm-starts across restarts. The caller
	// (cmd/ltspd, tests) owns opening and closing it.
	Store *store.Store
	// Peers is the cluster membership, including this node; empty
	// disables cluster mode (unless Resolver is set). Self is this
	// node's peer ID (must match an entry in Peers to claim ownership
	// of its ring arcs).
	Peers []cluster.Peer
	Self  string
	// Resolver, when non-nil, supplies dynamic membership (file-watch,
	// DNS-SRV, or any cluster.Source); the server polls it every
	// ResolveInterval (default 3s) and swaps the hash ring atomically on
	// change. Peers may then be empty — Self still names this node, and
	// it is always part of the membership. Without a Resolver the static
	// Peers list is the membership, unpolled.
	Resolver        cluster.Source
	ResolveInterval time.Duration
	// PeerFailThreshold is the consecutive-failure count that ejects a
	// peer from hedged fill and sync target sets (default 3); ejected
	// peers are retried on a jittered exponential backoff and re-admitted
	// through probation. PeerProbeInterval, when > 0, additionally runs
	// an active /healthz prober over dead peers so re-admission does not
	// spend a client request (cmd/ltspd defaults it on; embedders and
	// tests stay goroutine-free by default).
	PeerFailThreshold int
	PeerProbeInterval time.Duration
	// AntiEntropyInterval, when > 0, runs the background anti-entropy
	// loop: every interval (and immediately after startup and after
	// every membership change) this node exchanges range digests of its
	// owned keys with replica peers and pulls whatever it is missing.
	// It is the only mechanism that copies an artifact to owners that
	// never asked for it. <= 0 disables the loop; SyncOnce remains
	// available to embedders, and a cluster that neither runs the loop
	// nor calls SyncOnce converges only through on-demand peer fill (an
	// owner asked for an artifact it lacks recompiles it).
	AntiEntropyInterval time.Duration
	// Provenance, when non-nil, is the tamper-evident artifact creation
	// log: every compile, peer fill and anti-entropy pull is appended,
	// and every disk read is cross-checked against the chain — an entry
	// that no longer matches its provenance record is quarantined, never
	// served. The caller owns opening and closing it, like Store.
	Provenance *store.Log
	// Replication is the replica-set size used for ownership decisions
	// and peer cache-fill fan-out (default 2, clamped to the peer count
	// by the ring).
	Replication int
	// VNodes is the virtual-node count per peer on the hash ring
	// (default cluster.DefaultVNodes). All nodes and fleet-aware clients
	// must agree on it.
	VNodes int
	// PeerTimeout bounds a whole peer cache-fill attempt (all hedged
	// legs; default 2s). PeerHedgeDelay is the stagger before asking the
	// next replica while the previous one is still pending (default 50ms).
	PeerTimeout    time.Duration
	PeerHedgeDelay time.Duration
	// PeerHTTP is the client used for peer fetches (default: a dedicated
	// http.Client; per-request deadlines come from PeerTimeout).
	PeerHTTP *http.Client
	// Logger receives structured request logs. Nil discards them (tests,
	// embedders that log elsewhere).
	Logger *slog.Logger
	// TraceSample is the fraction of requests span-traced when the caller
	// did not send an X-Trace-ID header (a request carrying a valid one is
	// always traced). 0 means DefaultTraceSample; negative disables
	// sampling; >= 1 traces every request. Sampling is deterministic
	// stride sampling, like VerifySample, so tests are reproducible.
	TraceSample float64
	// TraceRing bounds how many recent request traces are retained for
	// GET /debug/requests and GET /v2/requests/{trace-id}; slow and error
	// outliers are additionally pinned in a ring a quarter that size
	// (default telemetry.DefaultRegistryCapacity).
	TraceRing int
	// TraceSlow is the duration at which a traced request counts as a
	// slow outlier and is retained past the recent ring (default
	// telemetry.DefaultSlowThreshold).
	TraceSlow time.Duration
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 256
	}
	if c.CompileTimeout <= 0 {
		c.CompileTimeout = 10 * time.Second
	}
	if c.SimulateTimeout <= 0 {
		c.SimulateTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxTrip <= 0 {
		c.MaxTrip = 10_000_000
	}
	if c.DrainRetryAfter <= 0 {
		c.DrainRetryAfter = time.Second
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.PeerHedgeDelay <= 0 {
		c.PeerHedgeDelay = 50 * time.Millisecond
	}
	if c.ResolveInterval <= 0 {
		c.ResolveInterval = 3 * time.Second
	}
	if c.PeerFailThreshold <= 0 {
		c.PeerFailThreshold = 3
	}
	if c.VerifySample == 0 {
		c.VerifySample = DefaultVerifySample
	}
	if c.TraceSample == 0 {
		c.TraceSample = DefaultTraceSample
	}
	return c
}

// DefaultVerifySample is the default verification sampling rate: one in
// every 500 executed compilations. A full pass (structural re-derivation
// plus the differential oracle's interpreter runs) costs several compile
// times, so the rate is set to keep the amortized overhead well under 5%
// of aggregate compile cost (gated by cmd/benchguard).
const DefaultVerifySample = 0.002

// DefaultTraceSample is the default span-tracing sampling rate for
// requests that do not ask to be traced: one in every 100. A sampled
// trace costs a handful of small allocations (the spans) on an
// otherwise allocation-light path, so the amortized overhead stays far
// below 1% of a compile (gated by cmd/benchguard); callers who want a
// specific request traced send wire.TraceHeader and are always sampled.
const DefaultTraceSample = 0.01

// Server is the ltspd HTTP service. It is an http.Handler; wrap it in an
// http.Server to serve traffic.
type Server struct {
	cfg      Config
	cache    *ArtifactCache
	store    *store.Store        // nil when persistence is disabled
	member   *cluster.Membership // nil when cluster mode is disabled
	health   *cluster.Health     // nil when cluster mode is disabled
	prov     *store.Log          // nil when provenance is disabled
	peerHTTP *http.Client
	metrics  *Metrics
	shed     *Shedder
	logger   *slog.Logger
	logOn    bool // request logging enabled (Config.Logger was non-nil)
	traces   *telemetry.Registry
	sampler  *telemetry.Sampler
	start    time.Time
	sem      chan struct{}
	mux      *http.ServeMux
	hot      hotCache
	draining atomic.Bool
	work     sync.WaitGroup
	// Background machinery (anti-entropy loop; the membership poller and
	// prober live inside member): syncPoke wakes the anti-entropy loop
	// out of turn (startup, membership change), bgStop stops it.
	syncPoke chan struct{}
	bgStop   chan struct{}
	bgOnce   sync.Once
	bgWait   sync.WaitGroup
	// verifier decides which executed compilations are verified: the
	// first and every ~1/VerifySample-th after it.
	verifier *telemetry.Sampler
}

// ring returns the current hash-ring snapshot (nil when cluster mode is
// disabled). Callers load it once per operation; membership changes swap
// the pointer atomically underneath.
func (s *Server) ring() *cluster.Ring {
	if s.member == nil {
		return nil
	}
	return s.member.Ring()
}

// testCompileHook, when non-nil, runs on the decoded loop inside the
// compile flight before the compiler proper. Tests use it to seed panics
// and exercise the containment boundary; it is never set in production.
var testCompileHook func(*ir.Loop)

// testVerifyHook, when non-nil, supplies the sampled-verification verdict
// instead of Compiled.Verify. Tests use it to exercise the
// verification-failure path without needing a real miscompile; it is
// never set in production.
var testVerifyHook func(*ltsp.Compiled) error

// writeRepro minimizes and persists a failure bundle, best-effort: a
// capture that cannot be written is logged and dropped, never surfaced to
// the client. It returns the bundle path ("" when capture is disabled or
// failed).
func (s *Server) writeRepro(b *repro.Bundle) string {
	if s.cfg.ReproDir == "" {
		return ""
	}
	b.Minimize(48)
	path, err := b.Write(s.cfg.ReproDir)
	if err != nil {
		s.logger.Warn("repro bundle write failed", "kind", b.Kind, "err", err)
		return ""
	}
	s.logger.Warn("wrote repro bundle", "kind", b.Kind, "path", path, "minimized", b.Minimized)
	return path
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:      cfg,
		metrics:  &Metrics{},
		shed:     NewShedder(cfg.PoolSize),
		logger:   logger,
		logOn:    cfg.Logger != nil,
		traces:   telemetry.NewRegistry(cfg.TraceRing, cfg.TraceSlow),
		sampler:  telemetry.NewSampler(cfg.TraceSample),
		verifier: telemetry.NewSampler(cfg.VerifySample),
		start:    time.Now(),
		sem:      make(chan struct{}, cfg.PoolSize),
		mux:      http.NewServeMux(),
	}
	s.cache = NewArtifactCache(cfg.CacheCapacity, s.metrics)
	s.store = cfg.Store
	s.prov = cfg.Provenance
	s.peerHTTP = cfg.PeerHTTP
	if s.peerHTTP == nil {
		s.peerHTTP = &http.Client{}
	}
	s.syncPoke = make(chan struct{}, 1)
	s.bgStop = make(chan struct{})
	if len(cfg.Peers) > 0 || cfg.Resolver != nil {
		s.health = cluster.NewHealth(cluster.HealthConfig{
			FailThreshold: cfg.PeerFailThreshold,
		})
		src := cfg.Resolver
		if src == nil {
			src = cluster.StaticSource(cfg.Peers)
		}
		self := cluster.Peer{ID: cfg.Self}
		for _, p := range cfg.Peers {
			if p.ID == cfg.Self {
				self = p
			}
		}
		s.member = cluster.NewMembership(cluster.MembershipConfig{
			Source:   src,
			Self:     self,
			VNodes:   cfg.VNodes,
			Interval: cfg.ResolveInterval,
			Health:   s.health,
			Logger:   logger,
			// A membership change wakes the anti-entropy loop out of turn:
			// arcs this node just gained may have artifacts to pull.
			OnChange: func(*cluster.Ring) { s.pokeSync() },
		})
		if cfg.Resolver != nil {
			s.member.Start()
		}
		if cfg.PeerProbeInterval > 0 {
			s.member.StartProber(cfg.PeerProbeInterval, cfg.PeerTimeout, cluster.HTTPProbe(s.peerHTTP))
		}
		if cfg.AntiEntropyInterval > 0 {
			s.startAntiEntropy(cfg.AntiEntropyInterval)
		}
	}
	s.mux.HandleFunc("POST /v2/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v2/compile-batch", s.handleCompileBatch)
	s.mux.HandleFunc("POST /v2/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v2/artifacts/{hash}", s.handleArtifact)
	s.mux.HandleFunc("GET /v2/artifacts/{hash}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v2/sync/digest", s.handleSyncDigest)
	s.mux.HandleFunc("GET /v2/sync/keys", s.handleSyncKeys)
	s.mux.HandleFunc("GET /v2/provenance/{hash}", s.handleProvenance)
	s.mux.HandleFunc("GET /v2/requests/{trace}", s.handleRequestTrace)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics exposes the server's counters (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// MetricsSnapshot returns the JSON document GET /metrics serves — the
// daemon logs it on drain so a terminated replica leaves its final
// counters in the log stream.
func (s *Server) MetricsSnapshot() any {
	return s.metricSet().jsonDoc()
}

// storeGet reads an entry from the persistent store and cross-checks it
// against the provenance chain. An entry whose section checksum no
// longer matches its latest provenance record has been rewritten in
// place behind the store's back (the store's own integrity check passes
// on a consistently restamped entry — the chain is what pins the
// original): it is quarantined — deleted, counted in
// provenance_failures — and reported corrupt so the caller refills or
// recompiles instead of serving it.
func (s *Server) storeGet(hash string) (*store.Entry, int64, error) {
	e, size, err := s.store.Get(hash)
	if err != nil {
		return nil, 0, err
	}
	if want, ok := s.prov.Latest(hash); ok && want != e.Checksum {
		s.store.Delete(hash)
		s.metrics.ProvenanceFailures.Add(1)
		s.logger.Warn("provenance mismatch: store entry quarantined",
			"hash", hash[:min(12, len(hash))], "recorded", want[:min(12, len(want))],
			"found", e.Checksum[:min(12, len(e.Checksum))])
		return nil, 0, fmt.Errorf("%w: entry diverges from its provenance record", store.ErrCorrupt)
	}
	return e, size, nil
}

// Cache exposes the artifact cache (tests and embedders).
func (s *Server) Cache() *ArtifactCache { return s.cache }

// Shedder exposes the admission controller (tests prime it for
// deterministic decisions; embedders may inspect it).
func (s *Server) Shedder() *Shedder { return s.shed }

// reqIDKey carries the request ID through the context so the cache-fill
// layers (peer fetches, batch items) can stamp their logs and outbound
// requests with it.
type reqIDKey struct{}

// requestIDFrom returns the request ID stamped by ServeHTTP ("" outside
// a request).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// ServeHTTP implements http.Handler. Every request is tagged with a
// request ID (echoed in the X-Request-ID response header, passed
// through when the caller supplied a valid one) and logged structured
// on completion. Traced requests — callers sending wire.TraceHeader,
// plus a sampled slice of the rest — additionally record a span
// timeline retained for GET /v2/requests/{trace-id}.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := requestID(r)
	w.Header().Set(wire.RequestIDHeader, id)
	tr, root := s.startTrace(r, id)
	ctx := context.WithValue(r.Context(), reqIDKey{}, id)
	if tr.On() {
		w.Header().Set(wire.TraceHeader, tr.ID())
		ctx = telemetry.WithSpan(ctx, tr, root)
	}
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(&muxErrorWriter{statusWriter: sw}, r)
	if tr.On() {
		root.End()
		tr.Finish(r.Method+" "+r.URL.Path, sw.Status())
		s.traces.Record(tr)
	}
	s.logRequest(ctx, id, tr.ID(), r, sw, time.Since(start))
}

// startTrace decides whether this request is traced: a valid
// wire.TraceHeader always traces under the caller's ID, otherwise the
// deterministic sampler decides. The root span nests under the caller's
// own span when the request carries wire.ParentSpanHeader.
func (s *Server) startTrace(r *http.Request, reqID string) (*telemetry.Trace, *telemetry.Span) {
	var tr *telemetry.Trace
	if hdr := r.Header.Get(wire.TraceHeader); wire.ValidTraceID(hdr) {
		tr = telemetry.New(hdr)
	} else if s.sampler.Sample() {
		tr = telemetry.New("")
	} else {
		return nil, nil
	}
	parent := r.Header.Get(wire.ParentSpanHeader)
	if !wire.ValidTraceID(parent) {
		parent = ""
	}
	root := tr.StartRemote("server "+r.Method+" "+r.URL.Path, parent)
	root.SetAttr("request_id", reqID)
	return tr, root
}

// logRequest emits the structured completion log line. It is a no-op —
// and allocates nothing — when the server has no logger, which keeps
// the cache-hit path allocation-free.
func (s *Server) logRequest(ctx context.Context, id, traceID string, r *http.Request, sw *statusWriter, dur time.Duration) {
	if !s.logOn {
		return
	}
	attrs := []slog.Attr{
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.Status()),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", dur),
		slog.String("remote", r.RemoteAddr),
	}
	if traceID != "" {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
}

// Shutdown stops accepting new work, stops the background machinery
// (anti-entropy loop, membership poller, health prober), and waits for
// in-flight work — every occupied worker slot — to finish or ctx to
// expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopBackground()
	done := make(chan struct{})
	go func() {
		s.work.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the background machinery without draining requests —
// embedders and tests that never started serving call it instead of
// Shutdown. Safe to call multiple times, and alongside Shutdown.
func (s *Server) Close() {
	s.stopBackground()
}

func (s *Server) stopBackground() {
	s.bgOnce.Do(func() { close(s.bgStop) })
	if s.member != nil {
		s.member.Close()
	}
	s.bgWait.Wait()
}

// encBufPool recycles response-encode buffers: rendering a response
// reuses the buffer a previous response grew, so the steady-state serve
// path does not allocate a fresh encode buffer per request.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// renderJSON appends v's JSON response body to buf: compact, one line.
// writeJSON and the hot map both render through it, so a hot serve is
// byte-identical to the response it replays.
func renderJSON(buf *bytes.Buffer, v any) error {
	return json.NewEncoder(buf).Encode(v)
}

// writeJSON renders v as the JSON response body and returns the number
// of body bytes written (transfer byte accounting wants the true
// on-the-wire size).
func writeJSON(w http.ResponseWriter, status int, v any) int {
	buf := encBufPool.Get().(*bytes.Buffer)
	_ = renderJSON(buf, v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	n, _ := w.Write(buf.Bytes())
	if buf.Cap() <= 1<<20 { // don't let one huge response pin memory
		buf.Reset()
		encBufPool.Put(buf)
	}
	return n
}

// writeError emits the v2 error envelope with an explicit code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, wire.NewError(code, format, args...))
}

// writeUnavailable emits a 503 envelope with a Retry-After hint.
func writeUnavailable(w http.ResponseWriter, code string, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	writeError(w, http.StatusServiceUnavailable, code, format, args...)
}

// codeForStatus maps a handler-chosen HTTP status to the envelope code
// used when no more specific code applies.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return wire.CodeInvalidRequest
	case http.StatusNotFound:
		return wire.CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return wire.CodeTooLarge
	case http.StatusServiceUnavailable:
		return wire.CodeOverloaded
	case http.StatusGatewayTimeout:
		return wire.CodeDeadlineExceeded
	default:
		return wire.CodeInternal
	}
}

// requestCtx derives the request's effective work deadline: the server's
// per-endpoint timeout, tightened by the client's remaining budget when
// the request carries an X-Request-Deadline-Ms header. The base context
// is the request's own, so a client disconnect cancels the work too.
func requestCtx(r *http.Request, serverTO time.Duration) (context.Context, context.CancelFunc) {
	to := serverTO
	if h := r.Header.Get(wire.DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < to {
				to = d
			}
		}
	}
	return context.WithTimeout(r.Context(), to)
}

// acquire takes a worker slot, respecting drain state, admission control
// and the queue timeout. ctx must carry the request's effective deadline
// (requestCtx). It returns false (with the response already written) on
// failure.
func (s *Server) acquire(w http.ResponseWriter, ctx context.Context) bool {
	if s.draining.Load() {
		s.metrics.Rejected.Add(1)
		writeUnavailable(w, wire.CodeDraining, s.cfg.DrainRetryAfter, "server is shutting down")
		return false
	}
	// Load shedding: reject early — before consuming a worker slot —
	// when the predicted queueing delay already exceeds the request's
	// remaining deadline. Only requests that declare a deadline can be
	// shed; the effective deadline from requestCtx always exists, so in
	// practice this covers every compile/simulate request.
	if !s.cfg.ShedDisabled {
		if deadline, ok := ctx.Deadline(); ok {
			if wait, admit := s.shed.Admit(time.Until(deadline), s.metrics.InFlight.Load()); !admit {
				s.metrics.Shed.Add(1)
				s.metrics.Rejected.Add(1)
				writeUnavailable(w, wire.CodeOverloaded,
					wait, "predicted queue wait %s exceeds the request deadline", wait.Round(time.Millisecond))
				return false
			}
		}
	}
	s.shed.Enqueue()
	defer s.shed.Dequeue()
	qctx := ctx
	if s.cfg.QueueTimeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, s.cfg.QueueTimeout)
		defer cancel()
	}
	acquired := false
	s.stage(ctx, stageQueueWait, func(context.Context) string {
		select {
		case s.sem <- struct{}{}:
			acquired = true
			return ""
		case <-qctx.Done():
			return "timeout"
		}
	})
	if acquired {
		return true
	}
	s.metrics.Rejected.Add(1)
	if ctx.Err() != nil {
		// The request's own deadline (or the client) gave up while
		// queued — that is a deadline failure, not back-pressure.
		s.metrics.Timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, wire.CodeDeadlineExceeded,
			"request deadline expired while waiting for a worker slot")
		return false
	}
	wait := s.shed.MedianServiceTime()
	writeUnavailable(w, wire.CodeOverloaded, wait, "worker pool saturated")
	return false
}

// runBounded executes fn on the calling goroutine's worker slot under
// ctx (the request's effective deadline). When ctx ends first the
// request fails with 504 and fn — which receives ctx — is expected to
// return promptly via cooperative cancellation, releasing the slot; the
// singleflight cache keeps the computation alive only while other
// requests still wait on it.
func (s *Server) runBounded(ctx context.Context, fn func(context.Context) (any, int, error)) (any, int, error) {
	type outcome struct {
		v      any
		status int
		err    error
	}
	ch := make(chan outcome, 1)
	held := s.holdSlot()
	go func() {
		out := outcome{status: http.StatusInternalServerError} // kept if fn panics
		defer func() { ch <- out }()
		defer held.release(&out.err)
		out.v, out.status, out.err = fn(ctx)
	}()
	select {
	case out := <-ch:
		return out.v, out.status, out.err
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return nil, http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded: %w", ctx.Err())
	}
}

// heldSlot is a worker slot in use; see holdSlot.
type heldSlot struct {
	s     *Server
	start time.Time
}

// holdSlot accounts for the worker slot the caller has just acquired:
// the work counts toward Shutdown's drain and in_flight until the
// goroutine doing it defers release. It is the one slot-holding path
// for single requests and batch items alike; call it before handing
// the work to another goroutine.
func (s *Server) holdSlot() heldSlot {
	s.work.Add(1)
	s.metrics.InFlight.Add(1)
	return heldSlot{s, time.Now()}
}

// release frees the slot and feeds its hold time to the load shedder.
// Deferred by the goroutine doing the work, it also turns a panic
// escaping that work into an internal error in *err (counted in
// panics_recovered) instead of killing the process or leaking the slot.
// Compile panics are already contained closer to the compiler, with
// repro capture; this is the outer safety net.
func (h heldSlot) release(err *error) {
	if r := recover(); r != nil {
		h.s.metrics.PanicsRecovered.Add(1)
		*err = &codedError{wire.CodeInternal, fmt.Errorf("worker panic: %v", r)}
	}
	h.s.shed.Observe(time.Since(h.start))
	h.s.metrics.InFlight.Add(-1)
	h.s.work.Done()
	<-h.s.sem
}

// statusForErr classifies a work-function error: cancellation and
// deadline errors become 504 (retryable), contained panics and
// verification failures (code "internal") become 500, everything else
// keeps the handler-chosen status.
func statusForErr(err error, status int) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	var ce *codedError
	if errors.As(err, &ce) && ce.code == wire.CodeInternal {
		return http.StatusInternalServerError
	}
	return status
}

// codedError lets a work function pin a specific envelope code; handlers
// otherwise derive the code from the HTTP status via codeForStatus.
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// errCode picks the envelope code for a work-function failure.
func errCode(err error, status int) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return wire.CodeDeadlineExceeded
	}
	return codeForStatus(status)
}

func compileResponse(hash string, cached bool, c *ltsp.Compiled) *wire.CompileResponse {
	resp := &wire.CompileResponse{
		Hash: hash, Cached: cached,
		Pipelined: c.Pipelined,
		Outcome:   c.Outcome(),
		II:        c.II, Stages: c.Stages,
		ResII: c.ResII, RecII: c.RecII,
		Backend: c.Backend, ProvenII: c.ProvenII,
		Reg: wire.RegStatsJSON{
			GR: c.Reg.TotalGR(), RotGR: c.Reg.RotGR,
			FR: c.Reg.TotalFR(), RotFR: c.Reg.RotFR,
			PR: c.Reg.TotalPR(), RotPR: c.Reg.RotPR,
			Spills: c.Reg.Spills,
		},
		Listing: c.Program.Listing(),
	}
	for _, lr := range c.Loads {
		resp.Loads = append(resp.Loads, wire.LoadReportJSON{
			ID: lr.ID, Critical: lr.Critical,
			BaseLat: lr.BaseLat, SchedLat: lr.SchedLat,
			ExtraD: lr.ExtraD, ClusterK: lr.ClusterK,
			Hint: lr.Hint.String(),
		})
	}
	if c.HLO != nil {
		resp.HLO = &wire.HLOJSON{
			IIEst:           c.HLO.IIEst,
			PrefetchesAdded: c.HLO.PrefetchesAdded,
			HintsSet:        c.HLO.HintsSet,
		}
	}
	if c.Pipelined && c.Stages <= 8 {
		resp.Diagram = c.Diagram(4)
	}
	return resp
}

// respondCompile renders an artifact as a compile response. The shallow
// copy re-stamps only the Cached flag; the nested slices are shared and
// read-only.
func respondCompile(cached bool, art *Artifact) *wire.CompileResponse {
	r := *art.Response
	r.Cached = cached
	return &r
}

// compileCached decodes the request once and resolves it through the
// tier chain — memory, then disk store, then peer cache-fill (when
// another node owns the hash), then a local compilation of the decoded
// loop — returning the artifact, its hash, and whether it was served
// from any cache layer rather than compiled by this call. ctx is this
// caller's interest in the result — the fill itself runs under the
// cache's flight context, which stays alive while any identical request
// still waits (see ArtifactCache.resolve).
// Each compilation actually executed records its decision trace in the
// artifact, bumps the matching outcome counter exactly once, and is
// written through to the disk store.
func (s *Server) compileCached(ctx context.Context, req *wire.CompileRequest) (*Artifact, string, bool, error) {
	if err := ctx.Err(); err != nil {
		// The deadline already expired (e.g. while queued): don't start a
		// compilation nobody will wait for.
		return nil, "", false, err
	}
	d, err := req.Decode()
	if err != nil {
		return nil, "", false, decodeErr(err)
	}
	hash := d.Hash
	var probe cacheProbe
	s.stage(ctx, stageMemLookup, func(context.Context) string {
		probe = s.cache.probe(hash)
		return probe.outcome
	})
	art, cached, err := s.cache.resolve(ctx, hash, probe, func(fctx context.Context) (*Artifact, error) {
		// The flight context is detached from this request (it lives
		// while any waiter remains); it carries this request's trace and
		// ID so the tiers' spans and peer fetches stitch to it.
		tr, parent := telemetry.FromContext(ctx)
		fctx = context.WithValue(telemetry.WithSpan(fctx, tr, parent), reqIDKey{}, requestIDFrom(ctx))
		if a := s.diskTier(fctx, hash); a != nil {
			return a, nil
		}
		if a := s.peerTier(fctx, hash); a != nil {
			return a, nil
		}
		return s.compileTier(fctx, d)
	})
	if err != nil {
		return nil, hash, false, err
	}
	// An artifact this flight did not compile came from disk or a peer:
	// a cache serve, even on the flight that filled it.
	return art, hash, cached || art.Compiled == nil, nil
}

// diskTier is the disk_read stage: it reads hash from the persistent
// store into an artifact that serves compile and trace requests without
// recompiling. It is the one place a request turns a store entry
// into a cache artifact: the compile flight, simulate by hash and the
// trace endpoint all read through it. nil means a miss (or no store).
func (s *Server) diskTier(ctx context.Context, hash string) (art *Artifact) {
	if s.store == nil {
		return nil
	}
	s.stage(ctx, stageDiskRead, func(context.Context) string {
		e, size, err := s.storeGet(hash)
		if err != nil {
			return outcomeMiss
		}
		if art, err = newArtifact(e, nil, size); err != nil {
			s.logger.Warn("disk artifact unusable", "hash", hash[:min(12, len(hash))], "err", err)
			return outcomeMiss
		}
		return outcomeHit
	})
	return art
}

// readThrough serves an artifact missing from memory out of the disk
// tier and warms the memory cache with it: the simulate-by-hash and trace
// paths, which never compile.
func (s *Server) readThrough(ctx context.Context, hash string) *Artifact {
	art := s.diskTier(ctx, hash)
	if art != nil {
		s.cache.Add(hash, art)
	}
	return art
}

// peerTier is the peer_fill stage: when another replica set owns the
// hash, its members have probably compiled (or will compile) it — ask
// them before burning a local compile, and write a fill through to disk
// so it survives restarts. nil means a miss (or this node owns the hash).
func (s *Server) peerTier(ctx context.Context, hash string) (art *Artifact) {
	ring := s.ring()
	if ring == nil || ring.IsOwner(s.cfg.Self, hash, s.cfg.Replication) {
		return nil
	}
	var e *store.Entry
	var resp *wire.CompileResponse
	s.stage(ctx, stagePeerFill, func(ctx context.Context) string {
		if e = s.peerFill(ctx, ring, hash); e == nil {
			return outcomeMiss
		}
		var err error
		if resp, err = decodeResponse(e); err != nil {
			s.logger.Warn("peer artifact unusable", "hash", hash[:12], "err", err)
			return outcomeMiss
		}
		return outcomeHit
	})
	if resp == nil {
		return nil
	}
	art, _ = newArtifact(e, resp, s.writeThrough(ctx, e, store.SourcePeerFill))
	return art
}

// compileTier compiles the decoded request locally (with sampled
// verification), counts its outcome, serializes the result into its
// store entry and writes it through.
func (s *Server) compileTier(ctx context.Context, d *wire.Decoded) (*Artifact, error) {
	d.Options.Trace = obs.New()
	c, verify, err := s.compileStep(ctx, d, true)
	if err != nil {
		return nil, err
	}
	s.metrics.CountOutcome(c.Backend, c.Outcome())
	resp := compileResponse(d.Hash, false, c)
	respJSON, err := json.Marshal(resp)
	if err != nil {
		return nil, &codedError{wire.CodeInternal, fmt.Errorf("serializing response: %v", err)}
	}
	traceJSON, err := json.Marshal(d.Options.Trace)
	if err != nil {
		return nil, &codedError{wire.CodeInternal, fmt.Errorf("serializing trace: %v", err)}
	}
	e := &store.Entry{Hash: d.Hash, Request: d.Canonical, Response: respJSON, Trace: traceJSON,
		Verify: verify, CreatedUnix: time.Now().Unix()}
	a, _ := newArtifact(e, resp, s.writeThrough(ctx, e, store.SourceCompile))
	a.Compiled = c
	return a, nil
}

// compileStep is the one compile path: the compile flight and
// materialization both run it. It compiles the decoded loop under the
// compile stage and, when verify is set, puts a sampled slice of
// compilations through the verify stage, reporting the verdict in meta.
// A panic anywhere in the compiler (or the verifier) becomes a retryable
// "internal" error plus a replayable on-disk bundle of the canonical
// request — the process, the worker pool and the other flights are
// unaffected.
func (s *Server) compileStep(ctx context.Context, d *wire.Decoded, verify bool) (c *ltsp.Compiled, meta store.VerifyMeta, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.PanicsRecovered.Add(1)
			s.writeRepro(repro.Capture(repro.KindPanic, d.Canonical, r, debug.Stack(), nil))
			c, err = nil, &codedError{wire.CodeInternal, fmt.Errorf("compiler panic: %v", r)}
		}
	}()
	if hook := testCompileHook; hook != nil {
		hook(d.Loop)
	}
	s.stage(ctx, stageCompile, func(context.Context) string {
		if c, err = ltsp.CompileContext(ctx, d.Loop, d.Options); err != nil {
			return "error"
		}
		return c.Outcome()
	})
	if err != nil {
		return nil, meta, err
	}
	if !verify || !s.verifier.Sample() {
		return c, meta, nil
	}
	// Trust but verify: the independent structural verifier and the
	// semantic differential oracle re-check the kernel. A failure here
	// means the compiler produced a wrong kernel — fail the request
	// rather than serve it.
	check := (*ltsp.Compiled).Verify
	if hook := testVerifyHook; hook != nil {
		check = hook
	}
	s.stage(ctx, stageVerify, func(context.Context) string {
		s.metrics.VerifyRuns.Add(1)
		if err = check(c); err != nil {
			return "failed"
		}
		return "passed"
	})
	if err != nil {
		s.metrics.VerifyFailures.Add(1)
		s.writeRepro(repro.Capture(repro.KindVerifyFailure, d.Canonical, nil, nil, err))
		return nil, meta, &codedError{wire.CodeInternal, fmt.Errorf("kernel verification failed: %v", err)}
	}
	return c, store.VerifyMeta{Sampled: true, Passed: true}, nil
}

// writeThrough is the write_through stage: persist e to the disk store
// (a no-op without one). It returns persist's byte count.
func (s *Server) writeThrough(ctx context.Context, e *store.Entry, source string) (size int64) {
	s.stage(ctx, stageWriteThrough, func(context.Context) string {
		size = s.persist(e, source)
		return ""
	})
	return size
}

// decodeErr pins the envelope code of a request decode failure, JSON or
// binary: version skew (wire.ErrVersion) is unsupported_version, a loop
// that failed semantic validation (ir.InvalidLoopError) invalid_loop;
// anything else renders as generic invalid_request.
func decodeErr(err error) error {
	var inv *ir.InvalidLoopError
	switch {
	case errors.Is(err, wire.ErrVersion):
		return &codedError{wire.CodeUnsupportedVersion, err}
	case errors.As(err, &inv):
		return &codedError{wire.CodeInvalidLoop, err}
	}
	return err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.metrics.CompileRequests.Add(1)
	start := time.Now()
	enc := requestEncoding(r)
	if enc == encUnknown {
		s.metrics.CompileErrors.Add(1)
		rejectMedia(w, r)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		s.metrics.CompileErrors.Add(1)
		return
	}
	defer putBody(body)
	bin := wantsBinary(r)
	// The prerendered hot path: a repeat of a byte-identical body is
	// answered from the hot map without decoding, hashing, a worker slot
	// or response encoding. Traced requests take the full path so their
	// span timelines stay truthful, and a draining server takes it so
	// repeats are rejected like any other new work.
	tr, _ := telemetry.FromContext(r.Context())
	useHot := body.Len() <= hotMaxBody && !tr.On() && !s.draining.Load()
	var hotKey [32]byte
	if useHot {
		hotKey = hotKeyOf(enc, body.Bytes())
		if s.serveHot(w, hotKey, bin) {
			s.metrics.CacheHits.Add(1)
			s.metrics.CompileLatency.Observe(time.Since(start))
			return
		}
	}
	var req *wire.CompileRequest
	if enc == encBinary {
		var err error
		req, err = binary.DecodeCompileRequest(body.Bytes())
		if err != nil {
			s.metrics.CompileErrors.Add(1)
			writeBinaryDecodeError(w, err)
			return
		}
	} else {
		req = new(wire.CompileRequest)
		if !decodeJSONBody(w, body.Bytes(), req) {
			s.metrics.CompileErrors.Add(1)
			return
		}
	}
	ctx, cancel := requestCtx(r, s.cfg.CompileTimeout)
	defer cancel()
	if !s.acquire(w, ctx) {
		return
	}
	v, status, err := s.runBounded(ctx, func(ctx context.Context) (any, int, error) {
		art, _, cached, err := s.compileCached(ctx, req)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return respondCompile(cached, art), http.StatusOK, nil
	})
	if err != nil {
		s.metrics.CompileErrors.Add(1)
		status = statusForErr(err, status)
		writeError(w, status, errCode(err, status), "compile: %v", err)
	} else {
		resp := v.(*wire.CompileResponse)
		writeCompileResponse(w, bin, status, resp)
		if useHot && status == http.StatusOK {
			s.storeHot(hotKey, resp)
		}
	}
	s.metrics.CompileLatency.Observe(time.Since(start))
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.metrics.SimulateRequests.Add(1)
	start := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		s.metrics.SimulateErrors.Add(1)
		return
	}
	var req wire.SimulateRequest
	ok = decodeJSONBody(w, body.Bytes(), &req)
	putBody(body)
	if !ok {
		s.metrics.SimulateErrors.Add(1)
		return
	}
	ctx, cancel := requestCtx(r, s.cfg.SimulateTimeout)
	defer cancel()
	if !s.acquire(w, ctx) {
		return
	}
	v, status, err := s.runBounded(ctx, func(ctx context.Context) (any, int, error) {
		return s.simulate(ctx, &req)
	})
	if err != nil {
		s.metrics.SimulateErrors.Add(1)
		status = statusForErr(err, status)
		writeError(w, status, errCode(err, status), "simulate: %v", err)
	} else {
		writeJSON(w, status, v)
	}
	s.metrics.SimulateLatency.Observe(time.Since(start))
}

var errUnknownArtifact = errors.New("unknown artifact hash (compile first, or send the loop inline)")

func (s *Server) simulate(ctx context.Context, req *wire.SimulateRequest) (any, int, error) {
	if err := wire.CheckVersion(req.Version); err != nil {
		return nil, http.StatusBadRequest, decodeErr(err)
	}
	if req.Trip < 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("trip count %d < 1", req.Trip)
	}
	if req.Trip > s.cfg.MaxTrip {
		return nil, http.StatusBadRequest, fmt.Errorf("trip count %d exceeds server limit %d", req.Trip, s.cfg.MaxTrip)
	}
	for i, mi := range req.Memory {
		switch {
		case mi.Float:
		case mi.Size == 0, mi.Size == 1, mi.Size == 2, mi.Size == 4, mi.Size == 8:
		default:
			return nil, http.StatusBadRequest, fmt.Errorf("memory[%d]: size %d, want 1, 2, 4 or 8 (0 means 8)", i, mi.Size)
		}
	}

	var (
		art    *Artifact
		hash   string
		cached bool
		err    error
	)
	switch {
	case req.Hash != "" && len(req.Loop) > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("set either hash or loop, not both")
	case req.Hash != "":
		var ok bool
		if art, ok = s.cache.Get(req.Hash); !ok {
			art = s.readThrough(ctx, req.Hash)
		}
		if art == nil {
			return nil, http.StatusNotFound, errUnknownArtifact
		}
		hash, cached = req.Hash, true
	default:
		creq := &wire.CompileRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options}
		art, hash, cached, err = s.compileCached(ctx, creq)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	c := art.Compiled
	if c == nil {
		// Simulation needs the executable program: an artifact read from
		// disk or a peer recompiles its stored canonical request,
		// upgrading the cache entry in place.
		if c, err = s.materialize(ctx, hash, art); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}

	mem := ltsp.NewMemory()
	for _, mi := range req.Memory {
		if mi.Float {
			mem.StoreF(mi.Addr, mi.FVal)
			continue
		}
		size := mi.Size
		if size == 0 {
			size = 8
		}
		mem.Store(mi.Addr, size, mi.Val)
	}
	cfg := req.Sim.ToConfig()
	res, err := sim.NewRunner(cfg).Run(c.Program, req.Trip, mem)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &wire.SimulateResponse{
		Hash: hash, Cached: cached,
		Cycles:      res.Cycles,
		KernelIters: res.KernelIters,
		Acct: wire.AcctJSON{
			Total: res.Acct.Total, Unstalled: res.Acct.Unstalled,
			ExeBubble: res.Acct.ExeBubble, L1DFPUBubble: res.Acct.L1DFPUBubble,
			RSEBubble: res.Acct.RSEBubble, FlushBubble: res.Acct.FlushBubble,
			FEBubble: res.Acct.FEBubble,
		},
		LoadsByLevel:  res.LoadsByLevel,
		OzQPeak:       res.OzQPeak,
		BankConflicts: res.BankConflictCount,
	}, http.StatusOK, nil
}

// handleTrace serves the decision trace stored with a cached artifact,
// falling through to the persistent store when the artifact is not in
// memory (a warm restart serves traces straight from disk, and the disk
// hit re-warms the memory cache). It reads through Peek so introspection
// neither reorders the LRU list nor inflates the cache-hit counters.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	art, ok := s.cache.Peek(hash)
	if !ok {
		art = s.readThrough(r.Context(), hash)
	}
	if art == nil {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, "trace: %v", errUnknownArtifact)
		return
	}
	events := art.Entry.Trace
	if events == nil {
		events = json.RawMessage("[]")
	}
	writeJSON(w, http.StatusOK, &wire.TraceResponse{
		Hash:    hash,
		Outcome: art.Response.Outcome,
		Events:  events,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  status,
		"version": buildinfo.Version,
	})
}

// handleMetrics serves the counters document. Both forms — JSON (the
// default) and Prometheus text exposition (negotiated via Accept:
// text/plain) — render from one metric set, so a scrape and a JSON read
// of the same instant report byte-for-byte consistent numbers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ms := s.metricSet()
	if wantsPromText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", PromContentType)
		w.WriteHeader(http.StatusOK)
		_ = ms.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, ms.jsonDoc())
}
