package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"ltsp/internal/wire"
)

// statusWriter records the status code and body size a handler wrote so
// the request log can report them, and the instruments of the endpoint
// that served the request (nil when it was not an instrumented one).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	ep     *endpointMetrics
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Status returns the written status, defaulting to 200 when the handler
// never called WriteHeader.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// muxErrorWriter converts the ServeMux's own plain-text error responses
// (404 for unrouted paths, 405 for wrong methods) into the structured
// error envelope, so that EVERY error leaving the server carries it.
// Handler-written errors are untouched: they set an application/json
// content type before writing the status, which this writer respects.
type muxErrorWriter struct {
	*statusWriter
	intercepted bool
}

func (w *muxErrorWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		w.intercepted = true
		code, msg := wire.CodeNotFound, "no such endpoint"
		if status == http.StatusMethodNotAllowed {
			code, msg = wire.CodeInvalidRequest, "method not allowed for this endpoint"
		}
		writeJSON(w.statusWriter, status, wire.NewError(code, msg))
		return
	}
	w.statusWriter.WriteHeader(status)
}

func (w *muxErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Swallow the mux's plain-text body; the envelope is already out.
		return len(p), nil
	}
	return w.statusWriter.Write(p)
}

// Request IDs are a per-process random prefix plus a sequence number:
// cheap, unique across restarts, and trivially greppable in logs.
var (
	requestIDPrefix = func() string {
		var b [4]byte
		_, _ = rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	requestIDSeq atomic.Int64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", requestIDPrefix, requestIDSeq.Add(1))
}

// requestID returns the request's ID: a valid client-supplied
// X-Request-ID passes through, so one ID follows a request across hops
// (peer cache-fills forward it) and every node's log lines correlate
// even when the request is not traced. Anything invalid — absent, too
// long, or outside the log-safe charset — is replaced with a fresh ID.
func requestID(r *http.Request) string {
	if id := r.Header.Get(wire.RequestIDHeader); wire.ValidTraceID(id) {
		return id
	}
	return nextRequestID()
}
