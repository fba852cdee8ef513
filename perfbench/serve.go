package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"ltsp"
	"ltsp/internal/ir"
	"ltsp/internal/server"
	"ltsp/internal/store"
	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

const (
	// hitInputs compile requests, each sent as JSON and as binary, make
	// 240 bodies: within the server's 256-entry hot map.
	hitInputs = 120
	hitOps    = 2 * hitInputs * 64

	// serve-mixed: the memory cache holds fewer artifacts than the two
	// callers ask for. The 53 workload specs generate 12 distinct loop
	// bodies (specs that share a generator differ only in their data), so
	// the callers' requests name 24 artifacts. One cycle of the op list is
	// one sweep, cycleCLI sessions on workload loops and cycleNew on a new
	// loop.
	mixedCacheCap = 16
	mixedCycles   = 106
	cycleCLI      = 8
	cycleNew      = 1
	simTrip       = 128
)

// serveInput is one compile request prepared in both encodings.
type serveInput struct {
	key   string
	loop  *ir.Loop
	opts  ltsp.Options
	wopts wire.Options
	raw   json.RawMessage // the loop's wire JSON
	json  []byte
	bin   []byte
	hash  string // canonical artifact hash
}

func newServeInput(key string, l *ir.Loop, opts ltsp.Options) (*serveInput, error) {
	req, err := wire.NewCompileRequest(l, opts)
	if err != nil {
		return nil, err
	}
	hash, err := req.Hash()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	bin, err := binary.EncodeCompileRequest(nil, l, req.Options)
	if err != nil {
		return nil, err
	}
	return &serveInput{key: key, loop: l, opts: opts, wopts: req.Options, raw: req.Loop, json: body, bin: bin, hash: hash}, nil
}

func (in *serveInput) body(bin bool) []byte {
	if bin {
		return in.bin
	}
	return in.json
}

// workingSet takes n evenly spaced points of the compile universe. It is
// the same on every seed: compile costs are heavy-tailed, and a seeded
// working set would move the numbers by which heavy loops it happened to
// hold. The seed draws the traffic over it.
func workingSet(n int) ([]*serveInput, error) {
	universe := compileUniverse()
	out := make([]*serveInput, 0, n)
	for s := 0; s < n; s++ {
		j := s * len(universe) / n
		in, err := newServeInput(universe[j].key, universe[j].loop, universe[j].opts)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client is one closed-loop caller of Server.ServeHTTP, without sockets.
type client struct {
	rec   recorder
	rd    bodyReader
	bytes int64 // response bytes received
}

func newClient() *client { return &client{rec: recorder{h: http.Header{}}} }

// serveClients is the number of closed-loop clients of the serve
// workloads.
const serveClients = 1

func newClients() []*client {
	cl := make([]*client, serveClients)
	for i := range cl {
		cl[i] = newClient()
	}
	return cl
}

var (
	hdrJSON   = http.Header{"Content-Type": {"application/json"}}
	hdrBinary = http.Header{"Content-Type": {binary.ContentType}, "Accept": {binary.ContentType}}
)

// do sends one request and returns the latency of the ServeHTTP call.
// traceID, when set, asks the server to trace the request.
func (c *client) do(h http.Handler, method, path string, body []byte, hdr http.Header, traceID string) time.Duration {
	if traceID != "" {
		hdr = hdr.Clone()
		hdr.Set(wire.TraceHeader, traceID)
	}
	clear(c.rec.h)
	c.rec.status = 0
	c.rec.body.Reset()
	c.rd.Reset(body)
	r := &http.Request{Method: method, URL: &url.URL{Path: path}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: hdr, Body: &c.rd, ContentLength: int64(len(body)), Host: "perfbench"}
	start := time.Now()
	h.ServeHTTP(&c.rec, r)
	d := time.Since(start)
	c.bytes += int64(c.rec.body.Len())
	return d
}

func (c *client) compile(h http.Handler, body []byte, bin bool, traceID string) time.Duration {
	hdr := hdrJSON
	if bin {
		hdr = hdrBinary
	}
	return c.do(h, http.MethodPost, "/v2/compile", body, hdr, traceID)
}

// checkCompile checks a compile response: status 200, the canonical
// artifact hash, and the kernel shape recorded in expected.txt.
func checkCompile(exp expected, rec *recorder, bin bool, key, hash string) (*wire.CompileResponse, error) {
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", key, rec.status, rec.body.String())
	}
	var resp *wire.CompileResponse
	var err error
	if bin {
		resp, err = binary.DecodeCompileResponse(rec.body.Bytes())
	} else {
		resp = new(wire.CompileResponse)
		err = json.Unmarshal(rec.body.Bytes(), resp)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: response: %w", key, err)
	}
	return resp, checkResponse(exp, resp, key, hash)
}

func checkResponse(exp expected, resp *wire.CompileResponse, key, hash string) error {
	if resp.Hash != hash {
		return fmt.Errorf("%s: hash %s, want %s", key, resp.Hash, hash)
	}
	return exp.check("compile", key, compileResult(resp.Pipelined, resp.II, resp.Stages))
}

// timeWire times the wire layer on one op's body and response: request
// decode, canonical hash and response encode, in the op's encodings.
func timeWire(in *serveInput, bin bool, resp *wire.CompileResponse, ot opTracer) error {
	var req *wire.CompileRequest
	var err error
	s := time.Now()
	if bin {
		req, err = binary.DecodeCompileRequest(in.bin)
		ot.since("wire.decode_binary_us", s)
	} else {
		req = new(wire.CompileRequest)
		err = json.Unmarshal(in.json, req)
		ot.since("wire.decode_json_us", s)
	}
	if err != nil {
		return fmt.Errorf("%s: decode: %w", in.key, err)
	}
	s = time.Now()
	hash, err := req.Hash()
	ot.since("wire.hash_us", s)
	if err != nil || hash != in.hash {
		return fmt.Errorf("%s: hash %s (%v), want %s", in.key, hash, err, in.hash)
	}
	s = time.Now()
	if bin {
		_ = binary.EncodeCompileResponse(nil, resp)
		ot.since("wire.encode_binary_us", s)
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	ot.since("wire.encode_json_us", s)
	return err
}

// metricsDoc is the part of GET /metrics the benchmark diffs.
type metricsDoc struct {
	CompileRequests  float64 `json:"compile_requests"`
	SimulateRequests float64 `json:"simulate_requests"`
	BatchItems       float64 `json:"batch_items"`
	Shed             float64 `json:"shed"`
	Timeouts         float64 `json:"timeouts"`
	CacheHits        float64 `json:"cache_hits"`
	DiskHits         float64 `json:"disk_hits"`
	Materializations float64 `json:"materializations"`
	CompileOutcomes  struct {
		Pipelined      float64 `json:"pipelined"`
		ReducedLatency float64 `json:"fallback_reduced_latency"`
		RaisedII       float64 `json:"fallback_raised_ii"`
		Sequential     float64 `json:"sequential"`
	} `json:"compile_outcomes"`
	CompileLatency  histDoc `json:"compile_latency"`
	SimulateLatency histDoc `json:"simulate_latency"`
	BatchLatency    histDoc `json:"batch_latency"`
	Stages          struct {
		MemLookup histDoc `json:"mem_lookup"`
	} `json:"stage_latency"`
}

type histDoc struct {
	Count float64 `json:"count"`
	SumMs float64 `json:"sum_ms"`
}

// serverCounters reads /metrics in-process, plus the clients' response
// bytes.
func serverCounters(h http.Handler, clients []*client) map[string]float64 {
	c := newClient()
	c.do(h, http.MethodGet, "/metrics", nil, http.Header{}, "")
	var m metricsDoc
	if err := json.Unmarshal(c.rec.body.Bytes(), &m); err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{
		"compile_requests":  m.CompileRequests,
		"simulate_requests": m.SimulateRequests,
		"batch_items":       m.BatchItems,
		"shed":              m.Shed,
		"timeouts":          m.Timeouts,
		"cache_hits":        m.CacheHits,
		"disk_hits":         m.DiskHits,
		"compiles": m.CompileOutcomes.Pipelined + m.CompileOutcomes.ReducedLatency +
			m.CompileOutcomes.RaisedII + m.CompileOutcomes.Sequential + m.Materializations,
		"mem_lookups":         m.Stages.MemLookup.Count,
		"compile_latency_ms":  m.CompileLatency.SumMs,
		"simulate_latency_ms": m.SimulateLatency.SumMs,
		"batch_latency_ms":    m.BatchLatency.SumMs,
	}
	for _, cl := range clients {
		out["resp_bytes"] += float64(cl.bytes)
	}
	return out
}

// hitBench is serve-hit: byte-identical repeat compile requests answered
// by an in-process server's hot map.
type hitBench struct {
	srv    *server.Server
	inputs []*serveInput
	resp   []*wire.CompileResponse // decoded reference answer per input
	ref    [][]byte                // reference answer bytes per body
	list   []int                   // body index: input*2 + (1 if binary)
	cl     []*client
}

func setupServeHit(seed int64) (bench, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	inputs, err := workingSet(hitInputs)
	if err != nil {
		return nil, err
	}
	b := &hitBench{
		srv:    server.New(server.Config{TraceSample: -1}),
		inputs: inputs,
		resp:   make([]*wire.CompileResponse, len(inputs)),
		ref:    make([][]byte, 2*len(inputs)),
		cl:     newClients(),
	}
	// Warm-up: the first request of each body compiles, the second is
	// answered from the hot map and is the reference for every later one.
	c := b.cl[0]
	for x := range b.ref {
		in, bin := inputs[x/2], x%2 == 1
		for pass := 0; pass < 2; pass++ {
			c.compile(b.srv, in.body(bin), bin, "")
			resp, err := checkCompile(exp, &c.rec, bin, in.key, in.hash)
			if err != nil {
				return nil, err
			}
			if !bin {
				b.resp[x/2] = resp
			}
		}
		b.ref[x] = bytes.Clone(c.rec.body.Bytes())
	}
	b.list = drawList(newRand(seed), uniform(len(b.ref)), hitOps)
	return b, nil
}

func (b *hitBench) clients() int { return len(b.cl) }
func (b *hitBench) close() error { b.srv.Close(); return nil }

func (b *hitBench) counters() map[string]float64 { return serverCounters(b.srv, b.cl) }

func (b *hitBench) digest() string {
	return listDigest(len(b.list), func(i int) string {
		x := b.list[i]
		return fmt.Sprintf("%s|bin=%t", b.inputs[x/2].key, x%2 == 1)
	})
}

func (b *hitBench) op(c int, i int64, t *tracer) (time.Duration, error) {
	x := b.list[i%int64(len(b.list))]
	in, bin := b.inputs[x/2], x%2 == 1
	cl := b.cl[c]
	// Never traced through the server: traced requests bypass the hot map.
	d := cl.compile(b.srv, in.body(bin), bin, "")
	if cl.rec.status != http.StatusOK {
		return d, fmt.Errorf("%s: status %d", in.key, cl.rec.status)
	}
	if !bytes.Equal(cl.rec.body.Bytes(), b.ref[x]) {
		return d, fmt.Errorf("%s: response differs from the checked reference", in.key)
	}
	if t != nil {
		return d, timeWire(in, bin, b.resp[x/2], opTracer{t, i})
	}
	return d, nil
}

// sweepOptions are the options ltsp-bench -server compiles every workload
// loop with (cmd/ltsp-bench/remote.go).
var sweepOptions = ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true, TripEstimate: 1000}

// cliOptions are the ltsp command's default options (cmd/ltsp).
var cliOptions = ltsp.Options{Mode: ltsp.ModeHLO, Prefetch: true, LatencyTolerant: true,
	BoostDelinquent: true, TripEstimate: 100}

// callerInputs returns what the server's two callers in this repository
// compile: every workload loop at the sweep's options and at the ltsp
// command's.
func callerInputs() (sweep, cli []compileInput) {
	for _, src := range workloadSources() {
		l := src.gen()
		sweep = append(sweep, compileInput{key: inputKey(src.name, sweepOptions), loop: l, opts: sweepOptions})
		cli = append(cli, compileInput{key: inputKey(src.name, cliOptions), loop: l, opts: cliOptions})
	}
	return sweep, cli
}

// Op kinds of serve-mixed. Each is one request of a caller session.
const (
	opSweep  byte = iota // ltsp-bench -server: /v2/compile-batch of every workload loop
	opCLI                // ltsp -server -loop L: /v2/compile at the command's defaults
	opCLISim             // its -sim-trip: /v2/simulate of that artifact by hash
	opNew                // ltsp -server -loop-file, a loop never seen: compile, write-through, provenance
	opNewSim             // its -sim-trip
)

var opKindNames = []string{"sweep", "cli", "cli-sim", "new", "new-sim"}

type mixedOp struct {
	kind byte
	in   int // workload loop index
}

// mixedBench is serve-mixed: the server with a store, a provenance log and
// a memory cache smaller than the working set, serving the two callers of
// the server in this repository. ltsp-bench -server sweeps every workload
// loop in 64-item batches: the 53 loops fit one request. The ltsp command
// in client mode sends one /v2/compile, then with -sim-trip a /v2/simulate
// of the returned hash; with -loop-file the loop can be one the server has
// never seen, here a workload loop under a new name. The repository holds
// no record of how often each caller runs, so the mix is fixed, not
// measured: per sweep, eight command sessions on workload loops and one
// on a new loop. It gives every serving path a share of the requests:
// hot-map repeats, memory and disk hits, fresh compiles with write-through
// and provenance, batches and simulates.
type mixedBench struct {
	srv   *server.Server
	st    *store.Store
	lg    *store.Log
	dir   string
	exp   expected
	sweep []*serveInput
	cli   []*serveInput
	// sweepBody is the sweep's batch; simBody the simulate of each cli input.
	sweepBody []byte
	simBody   [][]byte
	ops       []mixedOp
	cl        []*client
	seed      int64
	fresh     int64
	// lastNew is the hash of the latest new loop, simulated by the next
	// op; serve-mixed therefore runs one client.
	lastNew string
}

func setupServeMixed(seed int64) (bench, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	b := &mixedBench{exp: exp, seed: seed, cl: newClients()}
	sweep, cli := callerInputs()
	req := wire.CompileBatchRequest{Version: wire.Version}
	for i := range sweep {
		in, err := newServeInput(sweep[i].key, sweep[i].loop, sweep[i].opts)
		if err != nil {
			return nil, err
		}
		b.sweep = append(b.sweep, in)
		req.Items = append(req.Items, wire.CompileItem{Loop: in.raw, Options: in.wopts})
		if in, err = newServeInput(cli[i].key, cli[i].loop, cli[i].opts); err != nil {
			return nil, err
		}
		b.cli = append(b.cli, in)
		sim, err := json.Marshal(wire.SimulateRequest{Version: wire.Version, Hash: in.hash, Trip: simTrip})
		if err != nil {
			return nil, err
		}
		b.simBody = append(b.simBody, sim)
	}
	if b.sweepBody, err = json.Marshal(req); err != nil {
		return nil, err
	}
	b.ops = mixedOpList(newRand(seed), len(cli))
	if err := b.open(); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: a sweep (compiling and writing through every loop), one
	// session per command input, then a second sweep.
	c := b.cl[0]
	steps := []mixedOp{{kind: opSweep}}
	for i := range b.cli {
		steps = append(steps, mixedOp{kind: opCLI, in: i}, mixedOp{kind: opCLISim, in: i})
	}
	steps = append(steps, mixedOp{kind: opSweep})
	for i := range steps {
		if _, err := b.send(c, &steps[i], ""); err != nil {
			b.close()
			return nil, err
		}
	}
	b.lg.Barrier()
	return b, nil
}

// mixedOpList draws mixedCycles cycles of sessions. Each cycle is one
// sweep, cycleCLI command sessions and cycleNew new-loop sessions in a
// seeded order; the loops of each session kind are a systematic draw over
// the workload loops, so every seed spreads them evenly.
func mixedOpList(rng *rand.Rand, loops int) []mixedOp {
	cliLoops := drawList(rng, uniform(loops), mixedCycles*cycleCLI)
	newLoops := drawList(rng, uniform(loops), mixedCycles*cycleNew)
	var ops []mixedOp
	for c := 0; c < mixedCycles; c++ {
		sessions := []mixedOp{{kind: opSweep}}
		for j := 0; j < cycleCLI; j++ {
			sessions = append(sessions, mixedOp{kind: opCLI, in: cliLoops[c*cycleCLI+j]})
		}
		for j := 0; j < cycleNew; j++ {
			sessions = append(sessions, mixedOp{kind: opNew, in: newLoops[c*cycleNew+j]})
		}
		rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
		for _, s := range sessions {
			ops = append(ops, s)
			if s.kind != opSweep {
				ops = append(ops, mixedOp{kind: s.kind + 1, in: s.in})
			}
		}
	}
	return ops
}

// open creates a fresh store and provenance log in the temporary
// directory and a server over them with no background work.
func (b *mixedBench) open() error {
	var err error
	if b.dir, err = os.MkdirTemp("", "perfbench-store-*"); err != nil {
		return err
	}
	if b.st, err = store.Open(filepath.Join(b.dir, "artifacts"), store.Options{}); err != nil {
		return err
	}
	if b.lg, err = store.OpenLog(filepath.Join(b.dir, "provenance"), store.LogOptions{}); err != nil {
		return err
	}
	b.srv = server.New(server.Config{Store: b.st, Provenance: b.lg, CacheCapacity: mixedCacheCap,
		TraceSample: -1, TraceRing: 4096})
	return nil
}

func (b *mixedBench) clients() int { return len(b.cl) }

func (b *mixedBench) close() error {
	if b.srv != nil {
		b.srv.Close()
	}
	var err error
	if b.lg != nil {
		err = b.lg.Close()
	}
	if b.st != nil {
		b.st.Close()
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func (b *mixedBench) counters() map[string]float64 {
	b.lg.Barrier()
	m := serverCounters(b.srv, b.cl)
	m["store_writes"] = float64(b.st.Stats().Writes)
	m["provenance_records"] = float64(b.lg.Stats().Records)
	return m
}

func (b *mixedBench) digest() string {
	return listDigest(len(b.ops), func(i int) string {
		op := &b.ops[i]
		if op.kind == opSweep {
			return opKindNames[op.kind]
		}
		return opKindNames[op.kind] + "|" + b.cli[op.in].key
	})
}

func (b *mixedBench) op(c int, i int64, t *tracer) (time.Duration, error) {
	op := &b.ops[i%int64(len(b.ops))]
	cl := b.cl[c]
	traceID := ""
	if t != nil {
		traceID = fmt.Sprintf("perfbench-%d-%d", c, i)
	}
	d, err := b.send(cl, op, traceID)
	if err == nil && t != nil {
		if op.kind == opCLI {
			in := b.cli[op.in]
			if err = timeWire(in, false, b.cliResp(cl), opTracer{t, i}); err != nil {
				return d, err
			}
		}
		err = b.collectSpans(cl, traceID, opTracer{t, i})
	}
	return d, err
}

// send makes one request of a session, checks the answer and returns
// the latency of the ServeHTTP call.
func (b *mixedBench) send(cl *client, op *mixedOp, traceID string) (time.Duration, error) {
	in := b.cli[op.in]
	switch op.kind {
	case opSweep:
		d := cl.do(b.srv, http.MethodPost, "/v2/compile-batch", b.sweepBody, hdrJSON, traceID)
		return d, b.checkBatch(&cl.rec)
	case opCLI:
		d := cl.compile(b.srv, in.json, false, traceID)
		_, err := checkCompile(b.exp, &cl.rec, false, in.key, in.hash)
		return d, err
	case opCLISim:
		d := cl.do(b.srv, http.MethodPost, "/v2/simulate", b.simBody[op.in], hdrJSON, traceID)
		return d, b.checkSim(in, in.hash, &cl.rec)
	case opNew:
		b.fresh++
		l := in.loop.Clone()
		l.Name = fmt.Sprintf("%s~%d-%d", l.Name, b.seed, b.fresh)
		fin, err := newServeInput(in.key, l, in.opts)
		if err != nil {
			return 0, err
		}
		b.lastNew = fin.hash
		d := cl.compile(b.srv, fin.json, false, traceID)
		_, err = checkCompile(b.exp, &cl.rec, false, in.key, fin.hash)
		return d, err
	default: // opNewSim
		body, err := json.Marshal(wire.SimulateRequest{Version: wire.Version, Hash: b.lastNew, Trip: simTrip})
		if err != nil {
			return 0, err
		}
		d := cl.do(b.srv, http.MethodPost, "/v2/simulate", body, hdrJSON, traceID)
		return d, b.checkSim(in, b.lastNew, &cl.rec)
	}
}

// cliResp decodes the command compile the client just received.
func (b *mixedBench) cliResp(cl *client) *wire.CompileResponse {
	resp := new(wire.CompileResponse)
	_ = json.Unmarshal(cl.rec.body.Bytes(), resp)
	return resp
}

func (b *mixedBench) checkBatch(rec *recorder) error {
	if rec.status != http.StatusOK {
		return fmt.Errorf("batch: status %d: %.200s", rec.status, rec.body.String())
	}
	var resp wire.CompileBatchResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(resp.Items) != len(b.sweep) {
		return fmt.Errorf("batch: %d items, want %d", len(resp.Items), len(b.sweep))
	}
	for j, it := range resp.Items {
		in := b.sweep[j]
		if it.Error != "" || it.CompileResponse == nil {
			return fmt.Errorf("batch item %s: %s", in.key, it.Error)
		}
		if err := checkResponse(b.exp, it.CompileResponse, in.key, in.hash); err != nil {
			return err
		}
	}
	return nil
}

func (b *mixedBench) checkSim(in *serveInput, hash string, rec *recorder) error {
	if rec.status != http.StatusOK {
		return fmt.Errorf("simulate %s: status %d: %.200s", in.key, rec.status, rec.body.String())
	}
	var resp wire.SimulateResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return fmt.Errorf("simulate %s: %w", in.key, err)
	}
	if resp.Hash != hash {
		return fmt.Errorf("simulate %s: hash %s, want %s", in.key, resp.Hash, hash)
	}
	return b.exp.check("sim", in.key, simResult(resp.Cycles))
}

// collectSpans fetches the op's request trace and adds each server
// stage's self time: its span's duration less its children's.
func (b *mixedBench) collectSpans(cl *client, traceID string, ot opTracer) error {
	cl.do(b.srv, http.MethodGet, "/v2/requests/"+traceID, nil, http.Header{}, "")
	if cl.rec.status != http.StatusOK {
		return fmt.Errorf("trace %s: status %d", traceID, cl.rec.status)
	}
	var tr wire.RequestTraceResponse
	if err := json.Unmarshal(cl.rec.body.Bytes(), &tr); err != nil {
		return fmt.Errorf("trace %s: %w", traceID, err)
	}
	children := map[string]int64{}
	for _, s := range tr.Spans {
		children[s.Parent] += s.DurNs
	}
	for _, s := range tr.Spans {
		self := s.DurNs - children[s.ID]
		if s.Parent == "" {
			ot.add("server.root_ns", float64(s.DurNs))
			ot.add("server.staged_ns", float64(s.DurNs-self))
			continue
		}
		for _, name := range serverStages {
			if s.Name == name {
				ot.add("server."+name+"_us", float64(self))
			}
		}
	}
	return nil
}

// storeFS names the filesystem of the temporary directory, where
// serve-mixed opens its artifact store.
func storeFS() string {
	dir := os.TempDir()
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs"}
	name, ok := names[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("type 0x%x", st.Type)
	}
	return name + " at " + dir
}
