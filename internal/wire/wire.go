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
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

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

	// frame is the loop a binary frame carried, used when Loop is empty.
	// Decode copies it, so the frame's loop is never handed out for
	// mutation.
	frame *ir.Loop
}

// ErrVersion is the sentinel every unsupported envelope (or frame)
// version wraps, JSON and binary alike.
var ErrVersion = errors.New("unsupported version")

// CheckVersion rejects an envelope of another wire version.
func CheckVersion(v int) error {
	if v != Version {
		return fmt.Errorf("wire: %w: request envelope %d (want %d)", ErrVersion, v, Version)
	}
	return nil
}

// Decoded is a compile request decoded once: a loop of the caller's own,
// ready for the compiler (which mutates it), the library options, and
// the canonical encoding with its artifact hash.
type Decoded struct {
	Loop      *ir.Loop
	Options   ltsp.Options
	Canonical []byte
	Hash      string
}

// NewDecodedRequest builds a request around a loop a binary frame
// carried, already decoded and validated, so the serving path never
// parses JSON for it. Its Canonical and Hash are exactly those of the
// equivalent JSON request, keeping binary and JSON peers in one
// content-addressed ring.
func NewDecodedRequest(l *ir.Loop, opts Options) (*CompileRequest, error) {
	canonOpts, err := opts.canonical()
	if err != nil {
		return nil, err
	}
	return &CompileRequest{Version: Version, Options: canonOpts, frame: l}, nil
}

// NewCompileRequest builds a request from an in-memory loop and options.
func NewCompileRequest(l *ir.Loop, o ltsp.Options) (*CompileRequest, error) {
	data, err := ir.EncodeLoop(l)
	if err != nil {
		return nil, err
	}
	return &CompileRequest{Version: Version, Loop: data, Options: OptionsFrom(o)}, nil
}

// Decode checks the envelope version, decodes and validates the loop,
// parses the options and builds the canonical encoding — version
// pinned, loop re-encoded through the ir codec, options normalized —
// and its hash. Every call returns a loop of its own, so decoding a
// request again yields the same canonical bytes and hash even after the
// first loop was compiled. Version errors wrap ErrVersion; semantic loop
// failures are *ir.InvalidLoopError.
func (r *CompileRequest) Decode() (*Decoded, error) {
	if err := CheckVersion(r.Version); err != nil {
		return nil, err
	}
	var l *ir.Loop
	switch {
	case len(r.Loop) > 0:
		var err error
		if l, err = ir.DecodeLoop(r.Loop); err != nil {
			return nil, err
		}
	case r.frame != nil:
		l = r.frame.Clone()
	default:
		return nil, fmt.Errorf("wire: compile request has no loop")
	}
	opts, err := r.Options.ToOptions()
	if err != nil {
		return nil, err
	}
	// The canonical envelope is what encoding/json renders from a
	// CompileRequest holding the loop's canonical bytes; it is written
	// around them instead, so they are not re-validated and re-compacted.
	optsJSON, err := json.Marshal(OptionsFrom(opts))
	if err != nil {
		return nil, err
	}
	canon := make([]byte, 0, len(r.Loop)+len(optsJSON)+96*len(l.Body)+32)
	canon = append(canon, `{"v":`...)
	canon = strconv.AppendInt(canon, Version, 10)
	canon = append(canon, `,"loop":`...)
	if canon, err = ir.AppendLoop(canon, l); err != nil {
		return nil, err
	}
	canon = append(canon, `,"options":`...)
	canon = append(append(canon, optsJSON...), '}')
	return &Decoded{Loop: l, Options: opts, Canonical: canon, Hash: hashOf(canon)}, nil
}

// Canonical returns the canonical encoding of the request (see Decode).
func (r *CompileRequest) Canonical() ([]byte, error) {
	d, err := r.Decode()
	if err != nil {
		return nil, err
	}
	return d.Canonical, nil
}

// Hash returns the content-addressed artifact key of the request: the hex
// sha256 of its canonical encoding (see Decode).
func (r *CompileRequest) Hash() (string, error) {
	d, err := r.Decode()
	if err != nil {
		return "", err
	}
	return d.Hash, nil
}

// CompileItem is one loop of a batch compile: an independent
// (loop, options) pair, exactly the payload of a single CompileRequest.
type CompileItem struct {
	Loop    json.RawMessage `json:"loop"`
	Options Options         `json:"options,omitempty"`

	// frame is the loop a binary frame carried; Item forwards it.
	frame *ir.Loop
}

// NewDecodedItem builds a batch item around a loop a binary frame
// carried, exactly as NewDecodedRequest does for a single request.
func NewDecodedItem(l *ir.Loop, opts Options) (CompileItem, error) {
	canonOpts, err := opts.canonical()
	if err != nil {
		return CompileItem{}, err
	}
	return CompileItem{Options: canonOpts, frame: l}, nil
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
// forwarding the loop a binary frame carried.
func (r *CompileBatchRequest) Item(i int) *CompileRequest {
	return &CompileRequest{
		Version: r.Version,
		Loop:    r.Items[i].Loop,
		Options: r.Items[i].Options,
		frame:   r.Items[i].frame,
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
