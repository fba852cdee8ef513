package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// GET /v2/artifacts/{hash} returns the complete persisted artifact in the
// store's entry encoding (package store), the same bytes the serving node
// keeps on disk; this file defines the JSON view of one of its sections.

// TraceResponse is the body of GET /v2/artifacts/{hash}/trace. Events is
// the decision trace as the compiling node recorded it in the artifact:
// a JSON array of kinded decision events.
type TraceResponse struct {
	Hash    string          `json:"hash"`
	Outcome string          `json:"outcome"`
	Events  json.RawMessage `json:"events"`
}

// hashOf returns the content-addressed artifact key of an
// already-canonical request encoding (see CompileRequest.Decode): the
// hex sha256 of the bytes.
func hashOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}
