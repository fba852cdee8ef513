// Package wire defines the versioned JSON request envelopes of the ltspd
// compile-and-simulate service and the content-addressed artifact key.
//
// A compile request is (loop, compile options); its Hash — the hex sha256
// of the canonical envelope encoding — is the service's artifact-cache
// key. Canonicalization re-encodes the embedded loop through the ir codec
// and normalizes the option spellings, so two requests that mean the same
// compilation hash identically regardless of how the client formatted its
// JSON.
package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ltsp"
	"ltsp/internal/core"
	"ltsp/internal/hlo"
	"ltsp/internal/ir"
	"ltsp/internal/sim"
)

// Version tags the request envelope format.
const Version = 1

// Options is the wire form of ltsp.Options. The machine model is not part
// of the wire format: the service compiles for its configured target
// (today always the paper's Dual-Core Itanium 2).
type Options struct {
	// Mode is the HLO hint policy: "" or "none", "all-l3", "all-fp-l2",
	// "hlo".
	Mode string `json:"mode,omitempty"`
	// Prefetch enables the software prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`
	// LatencyTolerant enables latency-tolerant pipelining.
	LatencyTolerant bool `json:"latencyTolerant,omitempty"`
	// BoostDelinquent boosts HLO-flagged delinquent loads even when
	// LatencyTolerant is off.
	BoostDelinquent bool `json:"boostDelinquent,omitempty"`
	// TripEstimate is the compile-time trip-count estimate (<= 0 unknown).
	TripEstimate float64 `json:"tripEstimate,omitempty"`
	// Pipeline forces the pipelining decision; nil = pipeline if possible.
	Pipeline *bool `json:"pipeline,omitempty"`
	// Backend selects the scheduling backend: "" or "heuristic" (the
	// production modulo scheduler), "exact", or "oracle". The canonical
	// spelling of the heuristic is "" — it vanishes from canonical
	// encodings, so pre-backend artifact hashes are unchanged — while
	// exact and oracle requests hash distinctly and cached artifacts
	// never cross backends.
	Backend string `json:"backend,omitempty"`
}

// ModeName returns the canonical wire spelling of an HLO hint mode
// (ModeNone is spelled "" so it vanishes from canonical encodings).
func ModeName(m hlo.HintMode) string {
	switch m {
	case hlo.ModeAllL3:
		return "all-l3"
	case hlo.ModeAllFPL2:
		return "all-fp-l2"
	case hlo.ModeHLO:
		return "hlo"
	default:
		return ""
	}
}

// ParseMode parses a wire hint-mode spelling.
func ParseMode(s string) (hlo.HintMode, error) {
	switch s {
	case "", "none":
		return hlo.ModeNone, nil
	case "all-l3":
		return hlo.ModeAllL3, nil
	case "all-fp-l2":
		return hlo.ModeAllFPL2, nil
	case "hlo":
		return hlo.ModeHLO, nil
	}
	return 0, fmt.Errorf("wire: unknown hint mode %q", s)
}

// BackendName returns the canonical wire spelling of a scheduler backend
// (the heuristic is spelled "" so it vanishes from canonical encodings).
func BackendName(s string) string {
	if s == core.BackendHeuristic {
		return ""
	}
	return s
}

// ParseBackend parses a wire backend spelling into its canonical form.
// Names must be one of core.Backends(); resubmitting an unknown name
// cannot succeed, so the error is non-retryable.
func ParseBackend(s string) (string, error) {
	name, err := core.Resolve(s)
	if err != nil {
		return "", fmt.Errorf("wire: unknown scheduler backend %q (have %v)", s, core.Backends())
	}
	return BackendName(name), nil
}

// OptionsFrom converts library compile options to their wire form.
func OptionsFrom(o ltsp.Options) Options {
	return Options{
		Mode:            ModeName(o.Mode),
		Prefetch:        o.Prefetch,
		LatencyTolerant: o.LatencyTolerant,
		BoostDelinquent: o.BoostDelinquent,
		TripEstimate:    o.TripEstimate,
		Pipeline:        o.Pipeline,
		Backend:         BackendName(o.Backend),
	}
}

// ToOptions converts wire options to library compile options.
func (w Options) ToOptions() (ltsp.Options, error) {
	mode, err := ParseMode(w.Mode)
	if err != nil {
		return ltsp.Options{}, err
	}
	backend, err := ParseBackend(w.Backend)
	if err != nil {
		return ltsp.Options{}, err
	}
	if math.IsNaN(w.TripEstimate) || math.IsInf(w.TripEstimate, 0) {
		return ltsp.Options{}, fmt.Errorf("wire: non-finite trip estimate %v", w.TripEstimate)
	}
	// No real loop runs 10^12 iterations per invocation; beyond that the
	// estimate is adversarial and risks float->int overflow downstream.
	if w.TripEstimate > 1e12 {
		return ltsp.Options{}, fmt.Errorf("wire: absurd trip estimate %v", w.TripEstimate)
	}
	return ltsp.Options{
		Mode:            mode,
		Prefetch:        w.Prefetch,
		LatencyTolerant: w.LatencyTolerant,
		BoostDelinquent: w.BoostDelinquent,
		TripEstimate:    w.TripEstimate,
		Pipeline:        w.Pipeline,
		Backend:         backend,
	}, nil
}

// canonical normalizes the wire options (mode spelling, pipeline pointer
// identity) so that envelope hashing sees one representation per meaning.
func (w Options) canonical() (Options, error) {
	o, err := w.ToOptions()
	if err != nil {
		return Options{}, err
	}
	return OptionsFrom(o), nil
}

// SimOptions is the serializable subset of sim.Config. Nil fields take the
// paper-reproduction defaults (sim.DefaultConfig); the machine model and
// cache geometry are the service's own.
type SimOptions struct {
	BankConflicts    *bool `json:"bankConflicts,omitempty"`
	FEOverhead       *int  `json:"feOverhead,omitempty"`
	FlushOverhead    *int  `json:"flushOverhead,omitempty"`
	RSECyclesPerExec int64 `json:"rseCyclesPerExec,omitempty"`
}

// ToConfig overlays the wire fields on the default simulator config.
func (w SimOptions) ToConfig() sim.Config {
	cfg := sim.DefaultConfig()
	if w.BankConflicts != nil {
		cfg.BankConflicts = *w.BankConflicts
	}
	if w.FEOverhead != nil {
		cfg.FEOverhead = *w.FEOverhead
	}
	if w.FlushOverhead != nil {
		cfg.FlushOverhead = *w.FlushOverhead
	}
	cfg.RSECyclesPerExec = w.RSECyclesPerExec
	return cfg
}

// MemInit seeds one memory word before simulation. Float selects the
// floating-point store form (8-byte IEEE754); otherwise Size/Val describe
// an integer store of 1, 2, 4 or 8 bytes (Size 0 means 8).
type MemInit struct {
	Addr  int64   `json:"addr"`
	Size  int     `json:"size,omitempty"`
	Val   int64   `json:"val,omitempty"`
	FVal  float64 `json:"fval,omitempty"`
	Float bool    `json:"float,omitempty"`
}

// CompileRequest is the body of POST /v2/compile.
type CompileRequest struct {
	Version int `json:"v"`
	// Loop is the ir wire-format loop (see ir.EncodeLoop).
	Loop    json.RawMessage `json:"loop"`
	Options Options         `json:"options"`

	// decoded and canonical memoize work a decoder has already done, so
	// the serving path never re-parses JSON it has in hand. decoded is
	// single-use: DecodeLoop steals it, because the compiler (HLO pass)
	// mutates the loop it is given. Both fields are invisible to
	// encoding/json; a request built by plain JSON unmarshaling starts
	// with neither and behaves exactly as before.
	//
	// memoLoop and memoOpts record the public field values the memos were
	// computed from. A caller that copies a request and then changes Loop
	// or Options (tests do) silently invalidates the memos instead of
	// observing stale results: decoded is trusted only while Loop is the
	// very slice it was parsed from, canonical only while Options is also
	// unchanged.
	decoded   *ir.Loop
	canonical []byte
	memoLoop  json.RawMessage
	memoOpts  Options
}

// sameBytes reports slice identity (not content equality): same length
// and same backing array start. O(1), which is the point — it guards
// memo reuse on every Canonical/DecodeLoop call.
func sameBytes(a, b json.RawMessage) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// loopMemoValid reports whether r.decoded still corresponds to r.Loop.
func (r *CompileRequest) loopMemoValid() bool {
	return r.decoded != nil && sameBytes(r.Loop, r.memoLoop)
}

// canonMemoValid reports whether r.canonical still corresponds to
// (r.Loop, r.Options).
func (r *CompileRequest) canonMemoValid() bool {
	return r.canonical != nil && r.Options == r.memoOpts && sameBytes(r.Loop, r.memoLoop)
}

// NewDecodedRequest builds a request directly from an already-decoded,
// already-validated loop, memoizing it. The binary wire codec uses it so
// a binary-fed request reaches the compiler without any JSON decode —
// while Canonical()/Hash() still produce exactly the canonical JSON
// bytes a JSON-fed request produces, keeping binary and JSON peers in
// one content-addressed ring.
func NewDecodedRequest(l *ir.Loop, opts Options) (*CompileRequest, error) {
	canonOpts, err := opts.canonical()
	if err != nil {
		return nil, err
	}
	return &CompileRequest{Version: Version, Options: canonOpts, decoded: l}, nil
}

// NewCompileRequest builds a request from an in-memory loop and options.
func NewCompileRequest(l *ir.Loop, o ltsp.Options) (*CompileRequest, error) {
	data, err := ir.EncodeLoop(l)
	if err != nil {
		return nil, err
	}
	return &CompileRequest{Version: Version, Loop: data, Options: OptionsFrom(o)}, nil
}

// DecodeLoop parses the embedded loop. When a decoder memoized the loop
// (binary requests, or a prior Canonical call), the memo is returned
// directly and consumed: the caller is about to hand the loop to the
// compiler, which mutates it, so the memo can be used at most once.
// Before releasing a memoized loop the canonical bytes are pinned, so a
// later Canonical/Hash can never observe compiler mutations.
func (r *CompileRequest) DecodeLoop() (*ir.Loop, error) {
	if r.loopMemoValid() {
		l := r.decoded
		if len(r.Loop) == 0 && !r.canonMemoValid() {
			// The memoized loop is the only loop representation this
			// request has (binary decode): pin the canonical bytes before
			// releasing it to the (mutating) compiler.
			if _, err := r.Canonical(); err != nil {
				return nil, err
			}
		}
		r.decoded = nil
		return l, nil
	}
	if len(r.Loop) == 0 {
		return nil, fmt.Errorf("wire: compile request has no loop")
	}
	return ir.DecodeLoop(r.Loop)
}

// Canonical returns the canonical encoding of the request: version pinned,
// loop re-encoded through the ir codec, options normalized. The result is
// memoized, as is the decoded loop when this call had to parse it — the
// serving path calls Canonical (for the artifact key) and then
// DecodeLoop (to compile), and the pair now costs one loop decode, not
// two.
func (r *CompileRequest) Canonical() ([]byte, error) {
	if r.canonMemoValid() {
		return r.canonical, nil
	}
	if r.Version != Version {
		return nil, fmt.Errorf("wire: unsupported request version %d (want %d)", r.Version, Version)
	}
	l := r.decoded
	if !r.loopMemoValid() {
		if len(r.Loop) == 0 {
			return nil, fmt.Errorf("wire: compile request has no loop")
		}
		var err error
		if l, err = ir.DecodeLoop(r.Loop); err != nil {
			return nil, err
		}
		r.decoded = l
		r.memoLoop = r.Loop
	}
	loopData, err := ir.EncodeLoop(l)
	if err != nil {
		return nil, err
	}
	opts, err := r.Options.canonical()
	if err != nil {
		return nil, err
	}
	canon, err := json.Marshal(CompileRequest{Version: Version, Loop: loopData, Options: opts})
	if err != nil {
		return nil, err
	}
	r.canonical = canon
	r.memoOpts = r.Options
	r.memoLoop = r.Loop
	return canon, nil
}

// Hash returns the content-addressed artifact key of the request: the hex
// sha256 of its canonical encoding.
func (r *CompileRequest) Hash() (string, error) {
	data, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// CompileItem is one loop of a batch compile: an independent
// (loop, options) pair, exactly the payload of a single CompileRequest.
type CompileItem struct {
	Loop    json.RawMessage `json:"loop"`
	Options Options         `json:"options,omitempty"`

	// decoded memoizes a loop an alternate decoder already produced;
	// Item forwards it into the standalone CompileRequest.
	decoded *ir.Loop
}

// NewDecodedItem builds a batch item from an already-decoded loop,
// memoizing it exactly as NewDecodedRequest does for a single request.
func NewDecodedItem(l *ir.Loop, opts Options) (CompileItem, error) {
	canonOpts, err := opts.canonical()
	if err != nil {
		return CompileItem{}, err
	}
	return CompileItem{Options: canonOpts, decoded: l}, nil
}

// CompileBatchRequest is the body of POST /v2/compile-batch: a list of
// compile items the server shards over its bounded worker pool.
// Responses preserve item order. Each item hashes exactly like the
// equivalent single CompileRequest, so batch compiles share artifacts
// (and in-flight singleflight dedup) with single compiles.
type CompileBatchRequest struct {
	Version int           `json:"v"`
	Items   []CompileItem `json:"items"`
}

// Item returns the i-th element as a standalone CompileRequest,
// forwarding any memoized decode the batch decoder already did.
func (r *CompileBatchRequest) Item(i int) *CompileRequest {
	return &CompileRequest{
		Version: r.Version,
		Loop:    r.Items[i].Loop,
		Options: r.Items[i].Options,
		decoded: r.Items[i].decoded,
	}
}

// SimulateRequest is the body of POST /v2/simulate. Exactly one of Hash
// (a previously compiled artifact) or Loop (compiled inline, through the
// same cache) must be set.
type SimulateRequest struct {
	Version int `json:"v"`
	// Hash references an artifact from an earlier /v2/compile response.
	Hash string `json:"hash,omitempty"`
	// Loop + Options compile inline when Hash is empty.
	Loop    json.RawMessage `json:"loop,omitempty"`
	Options Options         `json:"options,omitempty"`
	// Trip is the trip count to simulate (>= 1).
	Trip int64 `json:"trip"`
	// Sim overrides simulator parameters.
	Sim SimOptions `json:"sim,omitempty"`
	// Memory seeds the initial memory image (empty = all-zero memory).
	Memory []MemInit `json:"memory,omitempty"`
}
