package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// EntryVersion tags the entry encoding. Version 1 was a JSON document;
// such a file fails the magic check and is quarantined like any other
// corrupt entry.
const EntryVersion = 2

// ContentType is the media type of an encoded entry: the one body
// GET /v2/artifacts/{hash} serves.
const ContentType = "application/x-ltsp-entry"

// An encoded entry is a fixed header followed by the raw sections:
//
//	offset  size  field
//	     0     4  magic "LTSE"
//	     4     1  version (EntryVersion)
//	     5     1  flags: bit 0 Verify.Sampled, bit 1 Verify.Passed
//	     6     8  CreatedUnix
//	    14    24  request, response and trace lengths
//	    38    32  section checksum (raw sha256)
//	    70        request, response and trace bytes, back to back
//
// Integers are little-endian, lengths unsigned. The encoding names no
// hash: the hash is sha256 of the request section, and whoever holds the
// bytes knows which hash it expects (the file name, the URL).
const headerSize = 70

var entryMagic = [4]byte{'L', 'T', 'S', 'E'}

const (
	flagSampled byte = 1 << iota
	flagPassed
)

// VerifyMeta records what the trust-but-verify layer knew about the
// artifact when it was stored, so a peer that fills its cache from this
// entry can tell a sampled-and-verified artifact from an unverified one.
type VerifyMeta struct {
	// Sampled reports whether the compilation went through independent
	// verification (the structural checker plus the differential oracle).
	Sampled bool
	// Passed reports the verdict; meaningful only when Sampled (a failed
	// verification never produces an artifact, so stored entries always
	// have Passed == Sampled — the field exists for forward compatibility
	// with advisory verification modes).
	Passed bool
}

// Entry is one persisted artifact. Request is the canonical compile
// request whose sha256 is the entry's hash; Response and Trace are the
// service's wire-format compile response and decision trace.
type Entry struct {
	Version     int
	Hash        string
	Request     json.RawMessage
	Response    json.RawMessage
	Trace       json.RawMessage
	Verify      VerifyMeta
	CreatedUnix int64
	// Checksum is the hex sha256 over the length-prefixed request,
	// response and trace sections; every decode recomputes and compares it.
	Checksum string

	// enc is the encoding DecodeEntry read the entry from, or the one
	// Store.Put wrote.
	enc []byte
}

// sectionSum is sha256 over the three variable sections, each preceded
// by its length so section boundaries cannot be confused.
func (e *Entry) sectionSum() (sum [sha256.Size]byte) {
	h := sha256.New()
	var n [8]byte
	for _, sec := range [][]byte{e.Request, e.Response, e.Trace} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(sec)))
		h.Write(n[:])
		h.Write(sec)
	}
	h.Sum(sum[:0])
	return sum
}

// EncodedSize returns the length of the entry's encoding: the bytes Put
// writes and GET /v2/artifacts/{hash} serves. It is the shared
// byte-accounting unit — the server's in-memory cache weighs artifacts
// with it, so the memory and disk layers report commensurable sizes.
func EncodedSize(e *Entry) int64 {
	return int64(headerSize + len(e.Request) + len(e.Response) + len(e.Trace))
}

// Encode returns the entry's encoding. An entry DecodeEntry returned, or
// Store.Put wrote, encodes to those bytes, uncopied, so such an entry is
// read-only: build a new Entry to change one.
func (e *Entry) Encode() []byte {
	if e.enc != nil {
		return e.enc
	}
	return e.encode(e.sectionSum())
}

// encode lays the entry out under the given section checksum.
func (e *Entry) encode(sum [sha256.Size]byte) []byte {
	var flags byte
	if e.Verify.Sampled {
		flags |= flagSampled
	}
	if e.Verify.Passed {
		flags |= flagPassed
	}
	b := make([]byte, 0, EncodedSize(e))
	b = append(b, entryMagic[:]...)
	b = append(b, EntryVersion, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.CreatedUnix))
	for _, sec := range [][]byte{e.Request, e.Response, e.Trace} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(sec)))
	}
	b = append(b, sum[:]...)
	for _, sec := range [][]byte{e.Request, e.Response, e.Trace} {
		b = append(b, sec...)
	}
	return b
}

// keep makes data, e's encoding, the entry's one copy of its sections:
// they alias it, as a decoded entry's do.
func (e *Entry) keep(data []byte) {
	rest := data[headerSize:]
	for _, sec := range []*json.RawMessage{&e.Request, &e.Response, &e.Trace} {
		n := len(*sec)
		if n > 0 {
			*sec = rest[:n:n]
		}
		rest = rest[n:]
	}
	e.enc = data
}

// DecodeEntry reads the entry encoded in data, which its holder expects
// under hash. It checks every declared section length against the bytes
// left before slicing, then that hash is well-formed, that the request
// hashes to it, and the section checksum. The sections alias data,
// which the caller must not modify afterwards.
func DecodeEntry(hash string, data []byte) (*Entry, error) {
	if len(data) < headerSize || [4]byte(data[:4]) != entryMagic {
		return nil, errors.New("not an entry")
	}
	if v := data[4]; v != EntryVersion {
		return nil, fmt.Errorf("unsupported entry version %d", v)
	}
	flags := data[5]
	if flags&^(flagSampled|flagPassed) != 0 {
		return nil, fmt.Errorf("unknown entry flags %#x", flags)
	}
	e := &Entry{
		Version:     EntryVersion,
		Hash:        hash,
		Verify:      VerifyMeta{Sampled: flags&flagSampled != 0, Passed: flags&flagPassed != 0},
		CreatedUnix: int64(binary.LittleEndian.Uint64(data[6:])),
		enc:         data,
	}
	rest := data[headerSize:]
	for i, sec := range []*json.RawMessage{&e.Request, &e.Response, &e.Trace} {
		n := binary.LittleEndian.Uint64(data[14+8*i:])
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("section %d declares %d bytes, %d left", i, n, len(rest))
		}
		if n > 0 {
			*sec = rest[:n:n]
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the trace section", len(rest))
	}
	if !ValidHash(hash) {
		return nil, fmt.Errorf("malformed hash %q", hash)
	}
	if sum := sha256.Sum256(e.Request); hex.EncodeToString(sum[:]) != hash {
		return nil, fmt.Errorf("request content hash %x does not match key %s", sum, hash)
	}
	sum := [sha256.Size]byte(data[38:headerSize])
	if e.sectionSum() != sum {
		return nil, errors.New("section checksum mismatch")
	}
	e.Checksum = hex.EncodeToString(sum[:])
	return e, nil
}

// CheckJSON reports an entry whose response or trace section is not
// valid JSON. The server writes only valid sections, so DecodeEntry does
// not rescan them on a disk read; an entry received from elsewhere is
// checked, since its checksum only proves the sender meant those bytes.
func (e *Entry) CheckJSON() error {
	if !json.Valid(e.Response) {
		return errors.New("response section is not valid JSON")
	}
	if len(e.Trace) > 0 && !json.Valid(e.Trace) {
		return errors.New("trace section is not valid JSON")
	}
	return nil
}

// ValidHash reports whether h is a well-formed content hash: 64
// lowercase hex characters. Hashes arrive from URL paths and peers, so
// this is also the path-traversal guard: anything else never touches the
// filesystem.
func ValidHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
