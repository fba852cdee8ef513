// Command ltspd serves the latency-tolerant software pipeliner over HTTP:
// a long-lived compile-and-simulate service with a bounded worker pool, a
// content-addressed artifact cache, structured request logging, and JSON
// metrics.
//
// Usage:
//
//	ltspd -addr :8347 -pool 8 -cache 512
//
// With -data-dir the artifact cache is backed by a content-addressed
// persistent store: compiled artifacts survive restarts and are served
// from disk without recompiling. With -peers (plus -self) the daemon
// joins a cluster: loop hashes are owned by replica sets on a shared
// consistent-hash ring, and a node asks the owners for an artifact —
// GET /v2/artifacts/{hash} — before compiling locally. The artifact body
// is the store entry's own encoding, the same bytes as the file on disk.
// Entries an older ltspd wrote as JSON are quarantined and recompiled on
// first read, and during a rolling upgrade peer fills between old and new
// nodes fail and fall back to local compiles. See the README "Running a
// cluster" section for a 3-node quickstart.
//
// The cluster self-heals: -peers-file or -peers-dns replace the static
// list with a live membership source (atomic ring swaps, per-peer
// health ejection tuned by -peer-fail-threshold/-peer-probe-interval),
// and anti-entropy digest sync (-anti-entropy-interval) carries every
// artifact to the owners that lack it, after a compile on a non-owner as
// well as after an outage, within one interval plus one round. Every
// artifact creation is recorded in a hash-chained Merkle-batched
// provenance log (-provenance, on by default with -data-dir); poisoned
// cache entries are quarantined instead of served, and
// GET /v2/provenance/{hash} exposes the verdict.
// See the README "Self-healing cluster" and "Provenance" sections.
//
// Endpoints (see internal/server and the README "Service" section):
//
//	POST /v2/compile   POST /v2/compile-batch   POST /v2/simulate
//	GET  /v2/artifacts/{hash}   GET /v2/artifacts/{hash}/trace
//	GET  /v2/provenance/{hash}
//	GET  /v2/sync/digest   GET /v2/sync/keys
//	GET  /v2/requests/{trace-id}   GET /debug/requests
//	GET  /healthz      GET /metrics
//
// Every error carries the structured
// envelope {"error":{"code","message","retryable"}}, requests may carry
// an X-Request-Deadline-Ms header that the server propagates into the
// compile, and overload or drain is signaled with 503 + Retry-After
// before a worker slot is consumed.
//
// With -pprof the net/http/pprof profiling handlers are mounted under
// /debug/pprof/ on the same listener (off by default: profiling
// endpoints expose internals and cost cycles under load).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ltsp/internal/buildinfo"
	"ltsp/internal/cluster"
	"ltsp/internal/server"
	"ltsp/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8347", "listen address")
		pool         = flag.Int("pool", 4, "max concurrent compile/simulate workers")
		cacheCap     = flag.Int("cache", 256, "artifact cache capacity (compiled loops)")
		compileTO    = flag.Duration("compile-timeout", 10*time.Second, "per-request compile deadline")
		simTO        = flag.Duration("sim-timeout", 30*time.Second, "per-request simulate deadline")
		queueTO      = flag.Duration("queue-timeout", 5*time.Second, "max wait for a worker slot")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		maxBodyBytes = flag.Int64("max-body", 8<<20, "max request body bytes")
		shedOff      = flag.Bool("no-shed", false, "disable deadline-aware admission control (load shedding)")
		verifySample = flag.Float64("verify-sample", server.DefaultVerifySample, "fraction of compilations independently verified (structural checks + differential oracle); <0 disables, >=1 verifies all")
		reproDir     = flag.String("repro-dir", "", "directory for minimized repro bundles from panics and verification failures (empty = off)")
		traceSample  = flag.Float64("trace-sample", server.DefaultTraceSample, "fraction of requests span-traced without an X-Trace-ID header (requests carrying one are always traced); <0 disables sampling, >=1 traces all")
		traceRing    = flag.Int("trace-ring", 0, "recent request traces retained for /debug/requests and /v2/requests/{trace-id} (0 = default 256; slow/error outliers pinned in a ring a quarter this size)")
		traceSlow    = flag.Duration("trace-slow", 0, "duration at which a traced request is retained as a slow outlier (0 = default 100ms)")
		dataDir      = flag.String("data-dir", "", "directory for the persistent content-addressed artifact store (empty = memory only)")
		storeMax     = flag.Int64("store-max-bytes", 1<<30, "disk budget for the artifact store; LRU entries are evicted beyond it (0 = unbounded)")
		storeFsync   = flag.Bool("store-fsync", false, "fsync artifact writes (durability over write latency)")
		storeScan    = flag.Duration("store-scan-interval", time.Minute, "background store scan interval, reconciling external changes and enforcing the budget (0 = off)")
		peerList     = flag.String("peers", "", "comma-separated cluster membership incl. this node: addr or id=addr (empty = single node)")
		peersFile    = flag.String("peers-file", "", "peers file for dynamic membership, re-read every -resolve-interval: one addr or id=addr per line, #-comments allowed (mutually exclusive with -peers-dns)")
		peersDNS     = flag.String("peers-dns", "", "DNS SRV name for dynamic membership, e.g. _ltspd._tcp.ltspd.svc (mutually exclusive with -peers-file)")
		resolveEvery = flag.Duration("resolve-interval", 3*time.Second, "poll interval for -peers-file / -peers-dns membership refresh")
		self         = flag.String("self", "", "this node's peer ID on the ring (required with -peers; must match one entry)")
		replication  = flag.Int("replication", 2, "replica-set size for artifact ownership")
		peerTO       = flag.Duration("peer-timeout", 2*time.Second, "budget for one whole peer cache-fill (all hedged legs)")
		peerHedge    = flag.Duration("peer-hedge-delay", 50*time.Millisecond, "stagger before hedging a peer fill to the next replica")
		peerFails    = flag.Int("peer-fail-threshold", 3, "consecutive failures before a peer is ejected as dead")
		peerProbe    = flag.Duration("peer-probe-interval", 2*time.Second, "active /healthz probe interval for dead peers (0 = passive re-admission only)")
		antiEntropy  = flag.Duration("anti-entropy-interval", 30*time.Second, "background anti-entropy digest-exchange interval (0 = off)")
		provenanceOn = flag.Bool("provenance", true, "record a tamper-evident provenance chain of artifact creations (requires -data-dir)")
		drainRetry   = flag.Duration("drain-retry-after", time.Second, "Retry-After hint sent with 503 draining responses")
		logLevel     = flag.String("log-level", "info", "log level: debug | info | warn | error")
		logText      = flag.Bool("log-text", false, "log in text form instead of JSON")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		version      = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("ltspd %s (%s)\n", buildinfo.Version, buildinfo.GoVersion())
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ltspd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewJSONHandler(os.Stderr, hopts)
	if *logText {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{
			MaxBytes:     *storeMax,
			Fsync:        *storeFsync,
			ScanInterval: *storeScan,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ltspd: opening -data-dir: %v\n", err)
			os.Exit(1)
		}
		logger.Info("artifact store open",
			slog.String("dir", *dataDir),
			slog.Int("entries", st.Len()),
			slog.Int64("bytes", st.Bytes()),
		)
	}

	// The provenance chain rides on the persistent store: without a disk
	// entry to cross-check, a chain record has nothing to quarantine.
	var prov *store.Log
	if *provenanceOn && st != nil {
		var err error
		prov, err = store.OpenLog(*dataDir, store.LogOptions{Fsync: *storeFsync})
		if err != nil {
			// A broken chain means the log was rewritten, reordered or
			// truncated on disk. Refuse to extend it silently: move the
			// evidence aside loudly and start a fresh chain.
			logger.Error("provenance chain verification failed; quarantining the old chain",
				slog.String("err", err.Error()))
			for _, p := range []string{store.LogPath(*dataDir), store.RootsPath(*dataDir)} {
				if _, serr := os.Stat(p); serr == nil {
					if rerr := os.Rename(p, p+".corrupt"); rerr != nil {
						fmt.Fprintf(os.Stderr, "ltspd: quarantining %s: %v\n", p, rerr)
						os.Exit(1)
					}
					logger.Warn("provenance file quarantined", slog.String("moved", p+".corrupt"))
				}
			}
			prov, err = store.OpenLog(*dataDir, store.LogOptions{Fsync: *storeFsync})
			if err != nil {
				fmt.Fprintf(os.Stderr, "ltspd: reopening provenance log: %v\n", err)
				os.Exit(1)
			}
		}
		stats := prov.Stats()
		logger.Info("provenance chain open",
			slog.Uint64("records", stats.Records),
			slog.Int("batches", stats.Batches),
		)
	}

	if *peersFile != "" && *peersDNS != "" {
		fmt.Fprintln(os.Stderr, "ltspd: -peers-file and -peers-dns are mutually exclusive")
		os.Exit(2)
	}
	var peers []cluster.Peer
	if *peerList != "" {
		var err error
		peers, err = cluster.ParsePeers(*peerList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ltspd: bad -peers: %v\n", err)
			os.Exit(2)
		}
		if *self == "" {
			fmt.Fprintln(os.Stderr, "ltspd: -peers requires -self (this node's peer ID)")
			os.Exit(2)
		}
		found := false
		for _, p := range peers {
			if p.ID == *self {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ltspd: -self %q is not in -peers\n", *self)
			os.Exit(2)
		}
		logger.Info("cluster mode",
			slog.String("self", *self),
			slog.Int("peers", len(peers)),
			slog.Int("replication", *replication),
		)
	}
	var resolver cluster.Source
	switch {
	case *peersFile != "":
		resolver = cluster.FileSource{Path: *peersFile}
	case *peersDNS != "":
		resolver = cluster.DNSSource{Name: *peersDNS}
	}
	if resolver != nil {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "ltspd: dynamic membership requires -self (this node's peer ID)")
			os.Exit(2)
		}
		if initial, err := resolver.Resolve(); err != nil {
			// Not fatal: the poller keeps retrying, and the ring holds self
			// until the source first answers.
			logger.Warn("initial membership resolve failed", slog.String("err", err.Error()))
		} else {
			peers = initial
		}
		logger.Info("dynamic membership",
			slog.String("self", *self),
			slog.String("source", *peersFile+*peersDNS),
			slog.Duration("interval", *resolveEvery),
		)
	}

	// On the command line 0 means "off" (Config treats 0 as "use the
	// default", which is right for embedders but surprising for a flag).
	if *verifySample == 0 {
		*verifySample = -1
	}
	if *traceSample == 0 {
		*traceSample = -1
	}
	srv := server.New(server.Config{
		PoolSize:            *pool,
		CacheCapacity:       *cacheCap,
		CompileTimeout:      *compileTO,
		SimulateTimeout:     *simTO,
		QueueTimeout:        *queueTO,
		MaxBodyBytes:        *maxBodyBytes,
		ShedDisabled:        *shedOff,
		DrainRetryAfter:     *drainRetry,
		VerifySample:        *verifySample,
		ReproDir:            *reproDir,
		Store:               st,
		Provenance:          prov,
		Peers:               peers,
		Resolver:            resolver,
		ResolveInterval:     *resolveEvery,
		Self:                *self,
		Replication:         *replication,
		PeerTimeout:         *peerTO,
		PeerHedgeDelay:      *peerHedge,
		PeerFailThreshold:   *peerFails,
		PeerProbeInterval:   *peerProbe,
		AntiEntropyInterval: *antiEntropy,
		Logger:              logger,
		TraceSample:         *traceSample,
		TraceRing:           *traceRing,
		TraceSlow:           *traceSlow,
	})
	var handlerRoot http.Handler = srv
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handlerRoot = mux
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handlerRoot,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.Int("pool", *pool),
			slog.Int("cache", *cacheCap),
			slog.String("version", buildinfo.Version),
			slog.String("go", buildinfo.GoVersion()),
		)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", slog.String("err", err.Error()))
			prov.Close()
			if st != nil {
				st.Close()
			}
			os.Exit(1)
		}
	case sig := <-sigCh:
		logger.Info("draining", slog.String("signal", sig.String()))
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", slog.String("err", err.Error()))
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("worker drain", slog.String("err", err.Error()))
		}
		// Flush the final metrics snapshot to the log so a scrape that
		// missed the last interval still sees the totals.
		logger.Info("drained", slog.Any("metrics", srv.MetricsSnapshot()))
	}
	prov.Close()
	if st != nil {
		st.Close()
	}
}
