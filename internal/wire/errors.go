package wire

import "fmt"

// The v2 error envelope. Every non-2xx ltspd response carries this JSON
// body, so clients branch on a stable machine-readable code instead of
// parsing message strings. The Retryable flag is authoritative: it tells
// clients whether resubmitting the identical request can ever succeed
// (after the Retry-After delay, when the response carries one).

// Error codes of the v2 error envelope.
const (
	// CodeInvalidRequest: the request is malformed or semantically
	// invalid (bad JSON, unknown hint mode, undecodable loop, trip count
	// out of range). Resubmitting the same bytes cannot succeed.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidLoop: the embedded loop decoded but failed semantic
	// validation (duplicate register definitions, non-finite constants,
	// registers outside the machine files, malformed memory dependences).
	// Resubmitting the same loop cannot succeed.
	CodeInvalidLoop = "invalid_loop"
	// CodeUnsupportedVersion: the request envelope version is not
	// supported by this server.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeNotFound: the referenced artifact hash is not in the cache.
	CodeNotFound = "not_found"
	// CodeTooLarge: the body or batch exceeds a server limit.
	CodeTooLarge = "too_large"
	// CodeDeadlineExceeded: the request's deadline expired before the
	// work finished; the work was canceled cooperatively.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeOverloaded: admission control predicted the request cannot
	// meet its deadline (or the worker-pool queue timed out). The
	// response carries a Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and no longer accepts
	// new work. Retry against another replica, or after Retry-After.
	CodeDraining = "draining"
	// CodeUnsupportedMedia: the request's Content-Type names an encoding
	// this server does not speak (neither JSON nor the binary wire
	// format). Resubmitting the same bytes cannot succeed; re-encode as
	// application/json, which every server accepts.
	CodeUnsupportedMedia = "unsupported_media"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
	// CodeInjected: a fault injected by the test harness (package
	// faultinject); never emitted in production.
	CodeInjected = "injected"
)

// Retryable reports whether a code describes a transient condition where
// resubmitting the identical request may succeed.
func Retryable(code string) bool {
	switch code {
	case CodeDeadlineExceeded, CodeOverloaded, CodeDraining, CodeInternal, CodeInjected:
		return true
	}
	return false
}

// ErrorBody is the inner object of the error envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorEnvelope is the body of every non-2xx ltspd response:
//
//	{"error":{"code":"overloaded","message":"...","retryable":true}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// NewError builds an envelope with Retryable derived from the code.
func NewError(code, format string, args ...any) ErrorEnvelope {
	return ErrorEnvelope{Error: ErrorBody{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: Retryable(code),
	}}
}

// DeadlineHeader carries the client's remaining deadline budget in whole
// milliseconds. The server tightens its own per-endpoint timeout to the
// smaller of the two, so a client that has 200ms left never occupies a
// worker for 10s, and the load shedder can reject requests whose budget
// cannot be met before they consume a worker slot.
const DeadlineHeader = "X-Request-Deadline-Ms"
