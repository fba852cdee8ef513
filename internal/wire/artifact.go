package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file defines the artifact-transfer envelope of the cluster mode:
// GET /v2/artifacts/{hash} returns the complete persisted artifact —
// canonical request, compile response, decision trace, verification
// metadata — so a peer can fill its own cache (memory and disk) without
// recompiling. The same envelope is what a fleet-aware client sees when
// it asks a replica for an artifact directly.

// ArtifactVerify mirrors the store's verification metadata on the wire.
type ArtifactVerify struct {
	// Sampled reports whether the compilation went through independent
	// verification on the node that compiled it; Passed is the verdict.
	Sampled bool `json:"sampled,omitempty"`
	Passed  bool `json:"passed,omitempty"`
}

// ArtifactResponse is the body of a successful GET /v2/artifacts/{hash}.
type ArtifactResponse struct {
	// Hash is the content-addressed key: the hex sha256 of Request.
	Hash string `json:"hash"`
	// Request is the canonical compile request the artifact answers.
	Request json.RawMessage `json:"request"`
	// Response is the wire CompileResponse of the compilation.
	Response json.RawMessage `json:"response"`
	// Trace is the compiler's decision trace (JSON event array).
	Trace json.RawMessage `json:"trace,omitempty"`
	// Verify carries the verification metadata recorded at compile time.
	Verify ArtifactVerify `json:"verify"`
	// CreatedUnix is when the artifact was first compiled (Unix seconds).
	CreatedUnix int64 `json:"createdUnix,omitempty"`
}

// Normalize rewrites the envelope's JSON sections to their compact
// forms. The content address is defined over the compact canonical
// request encoding. ltspd sends every section compact, but the envelope
// arrives from a peer, and JSON lets any sender, proxy or older node
// reformat it, so a receiver must normalize before hashing — and before
// persisting, so its stored copy is byte-identical to the sender's.
func (a *ArtifactResponse) Normalize() error {
	for _, s := range []*json.RawMessage{&a.Request, &a.Response, &a.Trace} {
		if len(*s) == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, *s); err != nil {
			return fmt.Errorf("wire: artifact section is not valid JSON: %v", err)
		}
		*s = append(json.RawMessage(nil), buf.Bytes()...)
	}
	return nil
}

// CheckIntegrity verifies that the envelope's Request really hashes to
// its Hash — the receiving peer's defense against a corrupt or lying
// sender: a filled cache entry must be exactly as content-addressed as a
// locally compiled one. Call Normalize first: the hash is defined over
// the compact encoding.
func (a *ArtifactResponse) CheckIntegrity() error {
	if got := hashOf(a.Request); got != a.Hash {
		return fmt.Errorf("wire: artifact request hashes to %s, envelope says %s", got, a.Hash)
	}
	return nil
}

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

// ValidHash reports whether s has the shape of an artifact key: exactly
// 64 lowercase hex characters. Cluster endpoints validate pushed and
// synced hashes with it before touching the store.
func ValidHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
