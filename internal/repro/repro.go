// Package repro captures compiler failures as self-contained, replayable
// bundles. When the service recovers a panic out of the compile path, or
// sampled verification catches a miscompiled kernel, it writes a bundle
// holding the exact wire request plus the failure details; `ltsp -repro
// bundle.json` replays it offline. Before a bundle is written its loop is
// shrunk by a bounded delta-debugging pass, so the on-disk repro is the
// smallest body the minimizer could find that still fails.
package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ltsp"
	"ltsp/internal/ddg"
	"ltsp/internal/ir"
	"ltsp/internal/wire"
)

// Version tags the bundle format.
const Version = 1

// Bundle kinds.
const (
	// KindPanic: the compiler panicked while building the artifact.
	KindPanic = "panic"
	// KindVerifyFailure: the compilation succeeded but independent
	// verification (structural checker or semantic oracle) rejected it.
	KindVerifyFailure = "verify_failure"
)

// Bundle is one captured failure: the request that triggered it and what
// went wrong. Request is a complete wire.CompileRequest, so a bundle can
// be replayed offline or resubmitted to a patched server unchanged.
type Bundle struct {
	Version    int             `json:"v"`
	Kind       string          `json:"kind"`
	Request    json.RawMessage `json:"request"`
	PanicValue string          `json:"panicValue,omitempty"`
	Error      string          `json:"error,omitempty"`
	Stack      string          `json:"stack,omitempty"`
	// Minimized reports whether the delta-debugging pass managed to
	// shrink the loop while preserving the failure; Orig/MinBodyLen
	// record how far it got.
	Minimized   bool `json:"minimized"`
	OrigBodyLen int  `json:"origBodyLen,omitempty"`
	MinBodyLen  int  `json:"minBodyLen,omitempty"`
}

// Capture builds a bundle from the canonical encoding of a failing
// compile request (wire.Decoded.Canonical). panicVal and stack describe
// a recovered panic (nil/empty for verification failures); failure is
// the verification error (nil for panics).
func Capture(kind string, request json.RawMessage, panicVal any, stack []byte, failure error) *Bundle {
	b := &Bundle{Version: Version, Kind: kind, Request: request}
	if panicVal != nil {
		b.PanicValue = fmt.Sprint(panicVal)
	}
	if failure != nil {
		b.Error = failure.Error()
	}
	b.Stack = string(stack)
	return b
}

// request decodes the embedded wire request.
func (b *Bundle) request() (*wire.CompileRequest, error) {
	if len(b.Request) == 0 {
		return nil, fmt.Errorf("repro: bundle has no request")
	}
	var req wire.CompileRequest
	if err := json.Unmarshal(b.Request, &req); err != nil {
		return nil, fmt.Errorf("repro: bad request in bundle: %w", err)
	}
	return &req, nil
}

// Failure kinds, as compileOnce classifies a failed compilation.
// Minimization keeps a candidate only when it fails with the original's
// kind.
const (
	failPanic   = "panic"   // the compiler panicked
	failCompile = "compile" // the compiler returned an error
	failVerify  = "verify"  // verification rejected the compiled kernel
)

// compileOnce runs one compilation under panic containment, verifies
// it, and returns the failure, if any, with its kind. It is the
// ground-truth "does this loop still fail?" predicate for minimization
// and replay.
func compileOnce(l *ir.Loop, opts ltsp.Options) (kind string, failure error) {
	defer func() {
		if r := recover(); r != nil {
			kind, failure = failPanic, fmt.Errorf("panic: %v", r)
		}
	}()
	c, err := ltsp.Compile(l, opts)
	if err != nil {
		return failCompile, err
	}
	if err := c.Verify(); err != nil {
		return failVerify, err
	}
	return "", nil
}

// Minimize shrinks the bundle's loop with a bounded delta-debugging pass:
// remove progressively smaller chunks of the body, keeping a removal only
// when the wire decoder would accept the candidate and it still fails
// compileOnce with the original's kind of failure (a panic, a compile
// error or a verifier rejection). A cut that removes a definition its
// readers still need fails in the compiler for that alone
// (ddg.ErrUndefinedRead), so it counts as the same failure only when
// the original failed that way too. maxAttempts bounds the total number
// of candidates (<= 0 uses a small default). If the original loop does not fail offline
// (e.g. the failure needed server-side state), the bundle is left
// untouched.
func (b *Bundle) Minimize(maxAttempts int) {
	req, err := b.request()
	if err != nil {
		return
	}
	d, err := req.Decode()
	if err != nil {
		return
	}
	// Compile rewrites its loop (HLO inserts prefetches), so every
	// candidate is compiled as a copy: the cuts are made from the
	// request's own loop and d.Loop keeps its length. MinimizeLoop's
	// first call is on that loop, which the decoder already accepted: it
	// records the failure the cuts must keep, and only when there is one
	// do later calls follow.
	var want string
	var wantUndefined bool
	fails := func(cand *ir.Loop) bool {
		if want != "" && ir.ValidateSemantics(cand) != nil {
			return false
		}
		kind, err := compileOnce(cand.Clone(), d.Options)
		undefined := errors.Is(err, ddg.ErrUndefinedRead)
		if want == "" {
			want, wantUndefined = kind, undefined
			return kind != ""
		}
		return kind == want && undefined == wantUndefined
	}
	min, shrunk := MinimizeLoop(d.Loop, fails, maxAttempts)
	if !shrunk {
		return
	}
	// The minimized loop must survive a wire round trip, or the bundle
	// would no longer replay.
	data, err := ir.EncodeLoop(min)
	if err != nil {
		return
	}
	if _, err := ir.DecodeLoop(data); err != nil {
		return
	}
	req.Loop = data
	if enc, err := json.Marshal(req); err == nil {
		b.Request = enc
		b.Minimized = true
		b.OrigBodyLen = len(d.Loop.Body)
		b.MinBodyLen = len(min.Body)
	}
}

// MinimizeLoop shrinks l's body while fails(candidate) stays true,
// removing chunks ddmin-style (halves, then quarters, ...) and remapping
// memory dependences onto the surviving instructions. It returns the
// smallest failing loop found and whether any shrink succeeded. fails is
// called at most maxAttempts times beyond the initial confirmation
// (<= 0 uses a default of 48); l itself is never mutated.
func MinimizeLoop(l *ir.Loop, fails func(*ir.Loop) bool, maxAttempts int) (*ir.Loop, bool) {
	if maxAttempts <= 0 {
		maxAttempts = 48
	}
	if !fails(l) {
		return l, false
	}
	cur, shrunk := l, false
	attempts := 0
	for chunk := len(cur.Body) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur.Body); start += chunk {
			if attempts >= maxAttempts {
				return cur, shrunk
			}
			cand := removeChunk(cur, start, chunk)
			attempts++
			if fails(cand) {
				cur, shrunk, removed = cand, true, true
				break // body changed; restart the scan at this granularity
			}
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(cur.Body) {
			chunk = len(cur.Body) / 2
		}
	}
	return cur, shrunk
}

// removeChunk returns a copy of l with body[start:start+n) dropped:
// instruction IDs are reassigned dense, and memory dependences are
// remapped (entries touching a removed instruction are dropped).
func removeChunk(l *ir.Loop, start, n int) *ir.Loop {
	c := l.Clone()
	body := append([]*ir.Instr{}, c.Body[:start]...)
	body = append(body, c.Body[start+n:]...)
	for i, in := range body {
		in.ID = i
	}
	c.Body = body
	remap := func(id int) int {
		switch {
		case id >= start+n:
			return id - n
		case id >= start:
			return -1
		default:
			return id
		}
	}
	deps := c.MemDeps[:0]
	for _, d := range c.MemDeps {
		f, t := remap(d.From), remap(d.To)
		if f < 0 || t < 0 {
			continue
		}
		d.From, d.To = f, t
		deps = append(deps, d)
	}
	c.MemDeps = deps
	return c
}

// Write persists the bundle under dir (created if missing). The file name
// is derived from the bundle's content hash, so repeated captures of the
// same failure coalesce onto one file. It returns the full path.
func (b *Bundle) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(dir, fmt.Sprintf("repro-%s-%s.json", b.Kind, hex.EncodeToString(sum[:8])))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a bundle from disk.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("repro: %s: %w", path, err)
	}
	if b.Version != Version {
		return nil, fmt.Errorf("repro: %s: unsupported bundle version %d (want %d)", path, b.Version, Version)
	}
	return &b, nil
}

// ReplayResult reports what happened when a bundle was re-run.
type ReplayResult struct {
	// Reproduced is true when the replay failed again (compile error,
	// panic, or verification failure).
	Reproduced bool
	// Detail describes the replay outcome for humans.
	Detail string
}

// Replay re-runs the bundled compilation offline with full verification
// and panic containment. The error return covers bundle-level problems
// (undecodable request); whether the original failure reproduced is in
// the result.
func (b *Bundle) Replay() (*ReplayResult, error) {
	req, err := b.request()
	if err != nil {
		return nil, err
	}
	d, err := req.Decode()
	if err != nil {
		return &ReplayResult{Reproduced: true,
			Detail: fmt.Sprintf("request rejected at decode: %v", err)}, nil
	}
	if _, failure := compileOnce(d.Loop, d.Options); failure != nil {
		return &ReplayResult{Reproduced: true, Detail: failure.Error()}, nil
	}
	return &ReplayResult{Detail: "compilation and verification now succeed"}, nil
}
