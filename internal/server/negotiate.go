package server

// Wire-encoding negotiation and the prerendered hot path.
//
// JSON is the default encoding everywhere. A client may send its compile
// (or batch) request as a binary frame by setting Content-Type:
// application/x-ltsp-bin, and may ask for a binary response body by
// listing the same media type in Accept. The two are independent: a
// binary request may ask for a JSON response and vice versa. Error
// responses are always the JSON envelope, regardless of Accept: a client
// that cannot parse its own error is debugging blind, and every client
// already speaks JSON. The artifact endpoint is not negotiated at all:
// it serves the store's entry encoding, the same bytes on every tier.
//
// The artifact content hash is defined over canonical JSON bytes no
// matter how the request traveled (see wire.CompileRequest.Canonical),
// so a binary-fed compile and a JSON-fed compile of the same loop land
// on the same artifact, cache entry, and ring owner.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"

	"ltsp/internal/wire"
	"ltsp/internal/wire/binary"
)

// encoding classifies a request body or response preference.
type encoding byte

const (
	encJSON encoding = iota
	encBinary
	encUnknown
)

// requestEncoding classifies the request body from its Content-Type. An
// unknown Content-Type is rejected with 415 rather than misparsed.
func requestEncoding(r *http.Request) encoding {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(ct) {
	case "", "application/json", "text/json":
		return encJSON
	case binary.ContentType:
		return encBinary
	}
	return encUnknown
}

// wantsBinary reports whether the client asked for a binary response
// body. Successful responses honor it; errors stay JSON.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), binary.ContentType)
}

// rejectMedia emits the 415 envelope for a Content-Type the server does
// not speak.
func rejectMedia(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
		"unsupported Content-Type %q (use application/json or %s)",
		r.Header.Get("Content-Type"), binary.ContentType)
}

// bodyPool recycles request-body buffers across requests; readBody and
// putBody are the only producers/consumers.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(b *bytes.Buffer) {
	if b == nil || b.Cap() > 1<<20 {
		return // don't let one huge body pin memory in the pool forever
	}
	b.Reset()
	bodyPool.Put(b)
}

// readBody slurps the request body through MaxBytesReader into a pooled
// buffer. On failure the error response has already been written.
// Callers must putBody the buffer when done with its bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyPool.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(body); err != nil {
		putBody(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.metrics.Rejected.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				"body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest,
			"unreadable request body: %v", err)
		return nil, false
	}
	return buf, true
}

// decodeJSONBody parses a JSON body: a single top-level value is
// consumed, and the error wording is encoding/json's.
func decodeJSONBody(w http.ResponseWriter, body []byte, v any) bool {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest,
			"malformed request body: %v", err)
		return false
	}
	return true
}

// writeBinaryDecodeError maps a binary-frame decode failure onto the
// same envelope codes the JSON decode path produces for the equivalent
// failure: version skew → unsupported_version, a loop that decoded but
// failed semantic validation → invalid_loop, anything else (bad magic,
// truncated or oversized frame, malformed payload) → invalid_request.
func writeBinaryDecodeError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, errCode(decodeErr(err), http.StatusBadRequest), "binary request: %v", err)
}

// writeBinary emits a 200 response with a binary frame body.
func writeBinary(w http.ResponseWriter, frame []byte) int {
	w.Header().Set("Content-Type", binary.ContentType)
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(frame)
	return n
}

// writeCompileResponse writes a compile response in the negotiated
// encoding. Only successful responses can be binary; callers route
// errors through writeError, which always emits the JSON envelope.
func writeCompileResponse(w http.ResponseWriter, bin bool, status int, resp *wire.CompileResponse) {
	if bin && status == http.StatusOK {
		writeBinary(w, binary.EncodeCompileResponse(nil, resp))
		return
	}
	writeJSON(w, status, resp)
}

// The hot map: prerendered responses keyed by the SHA-256 of the raw
// request bytes. A repeat of a byte-identical /v2/compile body skips
// body decoding, canonicalization, hashing, the worker pool and
// response encoding entirely — the bytes already rendered for the
// previous identical request are written back out. Entries are rendered
// with Cached=true (a hot serve is by definition a cache serve) in both
// encodings, so either Accept preference is a plain byte copy.
//
// The map is content-addressed by request bytes and compilation is
// deterministic, so entries never go stale; the bound below only caps
// memory. Traced requests bypass the hot path so their span timelines
// keep showing the real cache layers.
const (
	hotMaxEntries  = 256
	hotMaxBody     = 64 << 10 // largest request body eligible for the hot map
	hotMaxRendered = 1 << 20  // largest rendered response retained
)

type hotEntry struct {
	json []byte // exactly what writeJSON(200, resp) would write
	bin  []byte // binary.EncodeCompileResponse of the same response
}

type hotCache struct {
	mu sync.RWMutex
	m  map[[sha256.Size]byte]*hotEntry
}

func (h *hotCache) get(key [sha256.Size]byte) *hotEntry {
	h.mu.RLock()
	e := h.m[key]
	h.mu.RUnlock()
	return e
}

func (h *hotCache) put(key [sha256.Size]byte, e *hotEntry) {
	h.mu.Lock()
	if h.m == nil {
		h.m = make(map[[sha256.Size]byte]*hotEntry, hotMaxEntries)
	}
	if _, ok := h.m[key]; !ok && len(h.m) >= hotMaxEntries {
		for k := range h.m { // cap memory: drop an arbitrary entry
			delete(h.m, k)
			break
		}
	}
	h.m[key] = e
	h.mu.Unlock()
}

// hotKeyOf derives the hot-map key: the body hash, domain-separated by
// the body encoding (the same bytes mean different requests under
// different Content-Types).
func hotKeyOf(enc encoding, body []byte) [sha256.Size]byte {
	key := sha256.Sum256(body)
	key[sha256.Size-1] ^= byte(enc)
	return key
}

// serveHot writes the prerendered response for key, if present, in the
// requested encoding. It reports whether the request was served.
func (s *Server) serveHot(w http.ResponseWriter, key [sha256.Size]byte, bin bool) bool {
	e := s.hot.get(key)
	if e == nil {
		return false
	}
	body, ct := e.json, "application/json"
	if bin {
		body, ct = e.bin, binary.ContentType
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	return true
}

// storeHot renders resp in both encodings (stamped Cached=true: any
// future serve of this entry is a cache serve) and installs it under
// key.
func (s *Server) storeHot(key [sha256.Size]byte, resp *wire.CompileResponse) {
	r := *resp
	r.Cached = true
	var buf bytes.Buffer
	if renderJSON(&buf, &r) != nil || buf.Len() > hotMaxRendered {
		return
	}
	s.hot.put(key, &hotEntry{
		json: bytes.Clone(buf.Bytes()),
		bin:  binary.EncodeCompileResponse(nil, &r),
	})
}
