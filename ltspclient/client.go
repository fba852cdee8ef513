// Package ltspclient is the Go client for the ltspd compile-and-simulate
// service's v2 API. It adds the resilience the raw HTTP surface expects
// from callers:
//
//   - Typed errors: every non-2xx response is decoded from the v2 error
//     envelope into an *APIError with a machine-readable code; match
//     codes with errors.Is against the Err* sentinels.
//   - Retries: transient failures (retryable envelope codes, transport
//     errors) are retried with exponential backoff and full jitter,
//     honoring the server's Retry-After hint as a floor and bounded by a
//     total backoff budget. The jitter source is seeded, so tests are
//     deterministic.
//   - Deadlines: every attempt carries the caller's remaining budget in
//     the X-Request-Deadline-Ms header, so the server can shed requests
//     it cannot serve in time and cancel work whose deadline expires.
//   - Hedging: Compile can launch a second identical request after
//     HedgeDelay to cut tail latency. This is safe — the server
//     deduplicates identical in-flight compiles by content hash, and an
//     in-flight compilation is canceled only when every request waiting
//     on it has given up, so the losing hedge never kills the winner's
//     work.
//   - Fleet awareness: with Config.Peers set, the client builds the same
//     consistent-hash ring as the servers and routes each call to the
//     replica set that owns its content hash — the nodes most likely to
//     already hold the artifact. Retries fail over to the next replica,
//     hedge legs start on different replicas, and batches are sharded by
//     owner, so a fleet shares compilation work instead of every node
//     compiling everything.
package ltspclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltsp"
	"ltsp/internal/cluster"
	"ltsp/internal/ir"
	"ltsp/internal/telemetry"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// Config parameterizes a Client. The zero value of every field except
// BaseURL is usable; New applies the documented defaults.
type Config struct {
	// BaseURL is the ltspd root, e.g. "http://localhost:8347" (required
	// unless Peers is set; with Peers it is the fallback target for calls
	// that have no content hash to route by, defaulting to the first
	// peer).
	BaseURL string
	// Peers enables fleet-aware mode: the cluster membership, in the same
	// form ltspd's -peers flag takes (see cluster.ParsePeers). The client
	// builds the servers' consistent-hash ring from it and routes each
	// call to the replica set owning the call's content hash, primary
	// first, failing over to the next replica on retry.
	Peers []cluster.Peer
	// Replication is the replica-set size; it must match the servers'
	// -replication for routing to land on owners (default 2).
	Replication int
	// VNodes is the ring's virtual-node count per peer; it must match the
	// servers' (default cluster.DefaultVNodes).
	VNodes int
	// HTTPClient is the underlying transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first (default 3;
	// negative disables retries).
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries: sleep k is a uniformly jittered fraction of
	// min(BackoffBase<<k, BackoffMax) — "full jitter" — raised to the
	// server's Retry-After hint when one was sent (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffBudget bounds the total time spent sleeping between retries
	// of one logical call (default 10s). A retry whose sleep would
	// exceed the remaining budget is not attempted.
	BackoffBudget time.Duration
	// RequestTimeout bounds each individual attempt (default 30s). The
	// caller's ctx bounds the logical call across all attempts.
	RequestTimeout time.Duration
	// BatchTimeout bounds a CompileBatch call (default 5m): batches are
	// long-running by design, so they get their own per-attempt bound.
	BatchTimeout time.Duration
	// HedgeDelay, when positive, makes Compile launch a second identical
	// request after this delay and take whichever answer arrives first
	// (default off).
	HedgeDelay time.Duration
	// Seed seeds the jitter source (0 = a fixed default seed). Equal
	// seeds give identical backoff sequences — tests rely on this.
	Seed int64
	// Wire selects the transfer encoding on the v2 endpoints: "json"
	// (the default) or "binary" (application/x-ltsp-bin). In binary mode
	// compile, batch, and artifact calls send binary frames and ask for
	// binary responses; content hashes — and therefore routing, caching,
	// and dedup — are identical in both modes. Every ltspd speaks both;
	// a 415 answer is returned as an *APIError, not retried as JSON.
	Wire string
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BackoffBudget <= 0 {
		c.BackoffBudget = 10 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 5 * time.Minute
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	return c
}

// Stats counts what the client's resilience machinery actually did;
// read it after a call (or a test) to assert on retry behavior.
type Stats struct {
	// Attempts is the number of HTTP requests sent (including hedges).
	Attempts int64
	// Retries is the number of attempts that were re-sends after a
	// retryable failure.
	Retries int64
	// Hedges is the number of hedge requests launched; HedgeWins counts
	// the hedged calls the second request won.
	Hedges    int64
	HedgeWins int64
	// BackoffSlept is the total time spent sleeping between retries.
	BackoffSlept time.Duration
}

// Client is a resilient ltspd v2 API client. It is safe for concurrent
// use.
type Client struct {
	cfg  Config
	base string
	ring *cluster.Ring // nil outside fleet-aware mode

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	attempts  atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	sleptNs   atomic.Int64
}

// useBinary reports whether requests go out binary.
func (c *Client) useBinary() bool { return c.cfg.Wire == "binary" }

// New builds a Client. The only required field is Config.BaseURL
// (or Config.Peers for fleet-aware mode).
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" && len(cfg.Peers) == 0 {
		return nil, errors.New("ltspclient: Config.BaseURL or Config.Peers is required")
	}
	switch cfg.Wire {
	case "", "json", "binary":
	default:
		return nil, fmt.Errorf("ltspclient: unknown wire encoding %q (use \"json\" or \"binary\")", cfg.Wire)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	base := cfg.BaseURL
	if base == "" {
		base = cfg.Peers[0].Addr
	}
	c := &Client{
		cfg:  cfg.withDefaults(),
		base: strings.TrimRight(base, "/"),
		rng:  rand.New(rand.NewSource(seed)),
	}
	if len(cfg.Peers) > 0 {
		c.ring = cluster.New(cluster.Static(cfg.Peers), cfg.VNodes)
	}
	return c, nil
}

// targetsFor returns the ordered base URLs a content-hashed call should
// try: in fleet-aware mode, the hash's replica set primary-first (the
// nodes that own — and so most likely already hold — the artifact);
// otherwise just the configured BaseURL. Retries and hedge legs walk
// this list.
func (c *Client) targetsFor(hash string) []string {
	if c.ring == nil || hash == "" {
		return []string{c.base}
	}
	owners := c.ring.Owners(hash, c.cfg.Replication)
	if len(owners) == 0 {
		return []string{c.base}
	}
	out := make([]string, len(owners))
	for i, p := range owners {
		out[i] = strings.TrimRight(p.Addr, "/")
	}
	return out
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:     c.attempts.Load(),
		Retries:      c.retries.Load(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		BackoffSlept: time.Duration(c.sleptNs.Load()),
	}
}

// Compile submits one compile request. With Config.HedgeDelay set, a
// second identical request is hedged after the delay and the first
// answer wins; the loser's attempt is canceled.
func (c *Client) Compile(ctx context.Context, req *wire.CompileRequest) (*wire.CompileResponse, error) {
	targets := []string{c.base}
	if c.ring != nil {
		if hash, herr := req.Hash(); herr == nil {
			targets = c.targetsFor(hash)
		}
	}
	body, bin, err := c.encodeCompile(req)
	if err != nil {
		return nil, err
	}
	out := new(wire.CompileResponse)
	if c.cfg.HedgeDelay > 0 {
		err = c.hedge(ctx, "/v2/compile", body, out, targets, bin)
	} else {
		err = c.doOn(ctx, http.MethodPost, "/v2/compile", body, c.cfg.RequestTimeout, out, targets, bin)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeCompile renders the request in the client's wire encoding. Any
// hiccup on the binary side (an undecodable loop, an opcode with no wire
// name) silently degrades to JSON — the server gives such a request the
// same verdict either way.
func (c *Client) encodeCompile(req *wire.CompileRequest) (body []byte, bin bool, err error) {
	if c.useBinary() {
		if l, lerr := req.DecodeLoop(); lerr == nil {
			if frame, berr := binary.EncodeCompileRequest(nil, l, req.Options); berr == nil {
				return frame, true, nil
			}
		}
	}
	body, err = json.Marshal(req)
	return body, false, err
}

// CompileLoop builds the wire request for (loop, options) and submits it
// via Compile.
func (c *Client) CompileLoop(ctx context.Context, l *ltsp.Loop, opts ltsp.Options) (*wire.CompileResponse, error) {
	req, err := wire.NewCompileRequest(l, opts)
	if err != nil {
		return nil, err
	}
	return c.Compile(ctx, req)
}

// CompileBatch submits a batch of compile items. The batch as a whole
// retries like a single call (the server's response is 200 even when
// individual items fail; inspect each item's ErrorCode/Retryable to
// resubmit just the transient failures). In fleet-aware mode the batch
// is sharded by each item's owning node and the sub-batches run
// concurrently; results come back in the original item order, and a
// sub-batch whose call fails outright yields per-item errors rather than
// failing the whole batch.
func (c *Client) CompileBatch(ctx context.Context, items []wire.CompileItem) (*wire.CompileBatchResponse, error) {
	if c.ring == nil {
		out := new(wire.CompileBatchResponse)
		if err := c.postBatch(ctx, items, []string{c.base}, out); err != nil {
			return nil, err
		}
		return out, nil
	}

	type shard struct {
		targets []string
		idx     []int
		items   []wire.CompileItem
	}
	shards := make(map[string]*shard)
	var order []string
	for i, it := range items {
		creq := &wire.CompileRequest{Version: wire.Version, Loop: it.Loop, Options: it.Options}
		targets := []string{c.base}
		if h, err := creq.Hash(); err == nil {
			targets = c.targetsFor(h)
		}
		key := targets[0]
		sh := shards[key]
		if sh == nil {
			sh = &shard{targets: targets}
			shards[key] = sh
			order = append(order, key)
		}
		sh.idx = append(sh.idx, i)
		sh.items = append(sh.items, it)
	}

	results := make([]wire.BatchItemResult, len(items))
	var wg sync.WaitGroup
	for _, key := range order {
		sh := shards[key]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out wire.CompileBatchResponse
			err := c.postBatch(ctx, sh.items, sh.targets, &out)
			for k, i := range sh.idx {
				switch {
				case err != nil:
					results[i] = batchCallFailure(err)
				case k < len(out.Items):
					results[i] = out.Items[k]
				default:
					results[i] = wire.BatchItemResult{
						Error:     "server returned a short batch response",
						ErrorCode: wire.CodeInternal,
						Retryable: true,
					}
				}
			}
		}()
	}
	wg.Wait()
	return &wire.CompileBatchResponse{Items: results}, nil
}

// postBatch sends one batch (the whole batch, or one fleet shard) to its
// target list in the client's wire encoding.
func (c *Client) postBatch(ctx context.Context, items []wire.CompileItem, targets []string, out *wire.CompileBatchResponse) error {
	body, bin, err := c.encodeBatch(items)
	if err != nil {
		return err
	}
	return c.doOn(ctx, http.MethodPost, "/v2/compile-batch", body, c.cfg.BatchTimeout, out, targets, bin)
}

// encodeBatch renders a batch request in the client's wire encoding,
// degrading to JSON if any item resists binary encoding (the server
// judges such items identically in either form).
func (c *Client) encodeBatch(items []wire.CompileItem) (body []byte, bin bool, err error) {
	if c.useBinary() {
		loops := make([]*ir.Loop, 0, len(items))
		opts := make([]wire.Options, 0, len(items))
		ok := true
		for _, it := range items {
			creq := &wire.CompileRequest{Version: wire.Version, Loop: it.Loop, Options: it.Options}
			l, lerr := creq.DecodeLoop()
			if lerr != nil {
				ok = false
				break
			}
			loops = append(loops, l)
			opts = append(opts, it.Options)
		}
		if ok {
			if frame, berr := binary.EncodeCompileBatch(nil, loops, opts); berr == nil {
				return frame, true, nil
			}
		}
	}
	body, err = json.Marshal(&wire.CompileBatchRequest{Version: wire.Version, Items: items})
	return body, false, err
}

// batchCallFailure maps a failed sub-batch call onto its items.
func batchCallFailure(err error) wire.BatchItemResult {
	res := wire.BatchItemResult{
		Error:     err.Error(),
		ErrorCode: wire.CodeInternal,
		Retryable: IsRetryable(err),
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Code != "" {
		res.ErrorCode = ae.Code
	}
	return res
}

// Simulate runs (or compiles inline and runs) a simulation. Fleet-aware
// routing uses the artifact's content hash — given directly, or computed
// from the inline loop exactly as the server would — so the simulation
// lands on a node that already holds (or owns) the artifact.
func (c *Client) Simulate(ctx context.Context, req *wire.SimulateRequest) (*wire.SimulateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hash := req.Hash
	if hash == "" && c.ring != nil && len(req.Loop) > 0 {
		creq := &wire.CompileRequest{Version: wire.Version, Loop: req.Loop, Options: req.Options}
		if h, herr := creq.Hash(); herr == nil {
			hash = h
		}
	}
	out := new(wire.SimulateResponse)
	if err := c.doOn(ctx, http.MethodPost, "/v2/simulate", body, c.cfg.RequestTimeout, out, c.targetsFor(hash), false); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches the decision trace of a cached artifact. The events are
// returned in their serialized form (an array of kinded decision-event
// objects), whichever layer — memory, disk, or a peer's fill — the
// server produced them from.
func (c *Client) Trace(ctx context.Context, hash string) (*wire.TraceResponse, error) {
	out := new(wire.TraceResponse)
	if err := c.doOn(ctx, http.MethodGet, "/v2/artifacts/"+hash+"/trace", nil, c.cfg.RequestTimeout, out, c.targetsFor(hash), false); err != nil {
		return nil, err
	}
	return out, nil
}

// Artifact fetches the complete transfer envelope of a cached artifact —
// canonical request, compile response, trace and verification metadata —
// verifying its content-address integrity before returning it. It is the
// same endpoint peers use for cache-fill.
func (c *Client) Artifact(ctx context.Context, hash string) (*wire.ArtifactResponse, error) {
	out := new(wire.ArtifactResponse)
	// decodeBody follows the response's Content-Type, so a binary Accept
	// is safe even where a server answers JSON.
	if err := c.doOn(ctx, http.MethodGet, "/v2/artifacts/"+hash, nil, c.cfg.RequestTimeout, out, c.targetsFor(hash), c.useBinary()); err != nil {
		return nil, err
	}
	if out.Hash != hash {
		return nil, fmt.Errorf("ltspclient: server returned artifact %s for request %s", out.Hash, hash)
	}
	if err := out.Normalize(); err != nil {
		return nil, err
	}
	if err := out.CheckIntegrity(); err != nil {
		return nil, err
	}
	return out, nil
}

// Provenance fetches an artifact's tamper-evidence document: its recent
// provenance-chain records, the latest recorded entry checksum, whether
// the serving node's store copy still matches it, and the node's chain
// anchors (head and latest Merkle batch root). Fleet-aware clients are
// routed to the hash's owning replica, the node whose chain most likely
// holds the compile record.
func (c *Client) Provenance(ctx context.Context, hash string) (*wire.ProvenanceResponse, error) {
	out := new(wire.ProvenanceResponse)
	if err := c.doOn(ctx, http.MethodGet, "/v2/provenance/"+hash, nil, c.cfg.RequestTimeout, out, c.targetsFor(hash), false); err != nil {
		return nil, err
	}
	if out.Hash != hash {
		return nil, fmt.Errorf("ltspclient: server returned provenance for %s, not %s", out.Hash, hash)
	}
	return out, nil
}

// Health reports the server's /healthz status ("ok" or "draining") and
// build version. Health does not retry: it is itself the probe.
func (c *Client) Health(ctx context.Context) (status, version string, err error) {
	var out struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := c.once(ctx, http.MethodGet, c.base, "/healthz", nil, c.cfg.RequestTimeout, &out, false); err != nil {
		return "", "", err
	}
	return out.Status, out.Version, nil
}

// do runs the retry loop around once: send, classify, back off, resend.
func (c *Client) do(ctx context.Context, method, path string, body []byte, attemptTO time.Duration, out any) error {
	return c.doOn(ctx, method, path, body, attemptTO, out, []string{c.base}, false)
}

// doOn is do with an explicit failover list: attempt k goes to
// targets[k mod len(targets)], so retries rotate through the replica set
// before coming back to the primary. bin marks the body (and the
// preferred response encoding) as the binary wire format.
func (c *Client) doOn(ctx context.Context, method, path string, body []byte, attemptTO time.Duration, out any, targets []string, bin bool) error {
	budget := c.cfg.BackoffBudget
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		lastErr = c.once(ctx, method, targets[attempt%len(targets)], path, body, attemptTO, out, bin)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's own deadline is gone; whatever the attempt
			// returned, retrying is pointless.
			return lastErr
		}
		if attempt >= c.cfg.MaxRetries || !IsRetryable(lastErr) {
			return lastErr
		}
		sleep := c.backoff(attempt, lastErr)
		if sleep > budget {
			return lastErr // budget exhausted: surface the last failure
		}
		budget -= sleep
		c.sleptNs.Add(int64(sleep))
		tr, parent := telemetry.FromContext(ctx)
		bspan := tr.Start("backoff", parent)
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			bspan.End()
			return lastErr
		}
		bspan.End()
	}
}

// backoff computes the sleep before retry number attempt (0-based):
// full-jittered exponential, floored at the server's Retry-After hint.
func (c *Client) backoff(attempt int, err error) time.Duration {
	max := c.cfg.BackoffBase << attempt
	if max > c.cfg.BackoffMax || max <= 0 {
		max = c.cfg.BackoffMax
	}
	c.mu.Lock()
	sleep := time.Duration(c.rng.Int63n(int64(max)) + 1)
	c.mu.Unlock()
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > sleep {
		sleep = ae.RetryAfter
	}
	return sleep
}

// once sends a single HTTP attempt under its own timeout, propagating
// the caller's remaining deadline budget in the X-Request-Deadline-Ms
// header and decoding either the success body into out or the error
// envelope into an *APIError. When the caller's context carries a trace
// (WithTrace), the attempt records a client-side span and forwards the
// trace headers, so the server's spans stitch under this attempt.
func (c *Client) once(ctx context.Context, method, base, path string, body []byte, attemptTO time.Duration, out any, bin bool) error {
	c.attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, attemptTO)
	defer cancel()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		if bin {
			req.Header.Set("Content-Type", binary.ContentType)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if bin {
		req.Header.Set("Accept", binary.ContentType)
	}
	if deadline, ok := actx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(wire.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	tr, parent := telemetry.FromContext(ctx)
	span := tr.Start("attempt", parent)
	defer span.End()
	span.SetAttr("target", base)
	span.SetAttr("path", path)
	if tr.On() {
		req.Header.Set(wire.TraceHeader, tr.ID())
		if id := span.ID(); id != "" {
			req.Header.Set(wire.ParentSpanHeader, id)
		}
	}

	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		span.SetAttr("outcome", "transport_error")
		return err
	}
	defer resp.Body.Close()
	span.SetAttr("status", strconv.Itoa(resp.StatusCode))
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, data)
	}
	if out != nil {
		if err := decodeBody(path, resp.Header.Get("Content-Type"), data, out); err != nil {
			return err
		}
	}
	return nil
}

// decodeBody unpacks a 2xx body into out by the server's declared
// Content-Type: a binary frame through the wire codec for the response
// types that have one, everything else as JSON. (Error envelopes are
// always JSON and never reach here.)
func decodeBody(path, contentType string, data []byte, out any) error {
	if strings.HasPrefix(contentType, binary.ContentType) {
		var err error
		switch v := out.(type) {
		case *wire.CompileResponse:
			var r *wire.CompileResponse
			if r, err = binary.DecodeCompileResponse(data); err == nil {
				*v = *r
			}
		case *wire.CompileBatchResponse:
			var r *wire.CompileBatchResponse
			if r, err = binary.DecodeCompileBatchResponse(data); err == nil {
				*v = *r
			}
		case *wire.ArtifactResponse:
			var r *wire.ArtifactResponse
			if r, err = binary.DecodeArtifact(data); err == nil {
				*v = *r
			}
		default:
			err = fmt.Errorf("no binary decoder for %T", out)
		}
		if err != nil {
			return fmt.Errorf("ltspclient: decoding %s response: %w", path, err)
		}
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("ltspclient: decoding %s response: %w", path, err)
	}
	return nil
}

// apiError decodes a non-2xx response into an *APIError. A body that is
// not the v2 envelope (a proxy's HTML error page, a truncated response)
// degrades to code "internal" with retryability inferred from the
// status, so the retry loop still behaves sensibly.
func apiError(resp *http.Response, body []byte) error {
	ae := &APIError{Status: resp.StatusCode}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.Retryable = env.Error.Retryable
	} else {
		ae.Code = wire.CodeInternal
		ae.Message = strings.TrimSpace(string(body))
		ae.Retryable = resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout ||
			resp.StatusCode >= 500
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// hedge runs the hedged compile: a first leg immediately, a second
// identical one HedgeDelay later, first answer wins and the loser is
// canceled. In fleet-aware mode each leg starts on a different replica
// (leg n rotates targets by n), so a hedge escapes a slow node rather
// than re-queueing behind it. Errors don't win — a leg that fails simply
// leaves the race to the other; only when both legs have failed does
// hedge return the first leg's error.
func (c *Client) hedge(ctx context.Context, path string, body []byte, out *wire.CompileResponse, targets []string, bin bool) error {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tr, parent := telemetry.FromContext(ctx)
	type result struct {
		resp *wire.CompileResponse
		err  error
		leg  int
	}
	results := make(chan result, 2)
	leg := func(n int) {
		rotated := append(append([]string{}, targets[n%len(targets):]...), targets[:n%len(targets)]...)
		lspan := tr.Start("hedge_leg", parent)
		lspan.SetAttr("leg", strconv.Itoa(n))
		lspan.SetAttr("target", rotated[0])
		v := new(wire.CompileResponse)
		err := c.doOn(telemetry.WithSpan(hctx, tr, lspan), http.MethodPost, path, body, c.cfg.RequestTimeout, v, rotated, bin)
		if err == nil {
			lspan.SetAttr("outcome", "ok")
		} else {
			lspan.SetAttr("outcome", "error")
		}
		lspan.End()
		results <- result{v, err, n}
	}

	go leg(0)
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()

	launched := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				c.hedges.Add(1)
				go leg(1)
			}
		case r := <-results:
			if r.err == nil {
				if r.leg == 1 {
					c.hedgeWins.Add(1)
				}
				*out = *r.resp
				return nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			launched--
			if launched == 0 {
				// Every launched leg failed. If the hedge never fired
				// (first leg failed fast), don't wait for the timer.
				return firstErr
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
