// Package binary implements the compact binary wire format of the ltspd
// service: a length-prefixed, versioned frame around varint-packed
// encodings of the compile request and response envelopes, negotiated on
// Content-Type/Accept "application/x-ltsp-bin". (Artifacts travel in the
// store's own entry encoding, never in a frame.)
//
// JSON remains the default and the canonical encoding: the artifact
// content hash is defined over compact canonical JSON bytes (see
// wire.CompileRequest.Decode), never over binary frames, so binary
// and JSON peers interoperate in one content-addressed ring. The binary
// decoder produces the very same structures the JSON decoder produces —
// a property enforced by the differential fuzz target
// FuzzWireCodecEquivalence — and runs every loop through the same
// semantic validation (ir.FinishDecodedLoop), so no byte sequence is
// accepted here that the JSON path would reject.
//
// Frame layout (all multi-byte integers are varints unless noted):
//
//	offset 0: magic "LTB" (3 bytes)
//	offset 3: format version (1 byte, currently 1)
//	offset 4: payload kind (1 byte)
//	offset 5: payload length (uvarint) — must equal exactly the number
//	          of bytes that follow; short or surplus bytes reject the
//	          frame before any payload allocation happens
//	then:     payload
//
// Payload primitives: unsigned varints (encoding/binary uvarint),
// zigzag-encoded signed varints, IEEE-754 float64 bits in little-endian
// byte order, and interned strings — the first occurrence of a string is
// written inline (tag 0, length, bytes) and every later occurrence is a
// 1-based back-reference into the table built so far. Opcode mnemonics,
// stride kinds, cache hints and mode names all travel as interned
// strings resolved through the ir package's own name tables, so the
// binary format can never drift from the JSON format on enum numbering.
package binary

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"ltsp/internal/wire"
)

// ContentType is the negotiated media type of the binary wire format.
const ContentType = "application/x-ltsp-bin"

// FormatVersion tags the frame layout; decoders reject other versions.
const FormatVersion = 1

var magic = [3]byte{'L', 'T', 'B'}

// Payload kinds.
const (
	kindCompileRequest byte = iota + 1
	kindCompileBatchRequest
	kindCompileResponse
	kindCompileBatchResponse
)

// errTruncated covers every "the frame claims more than it carries"
// condition: declared lengths and element counts are always validated
// against the bytes actually present before anything is allocated, so an
// adversarial length prefix cannot cause an allocation blowup.
var errTruncated = errors.New("binary: truncated or corrupt frame")

func fmtErr(format string, args ...any) error {
	return fmt.Errorf("binary: "+format, args...)
}

// writer accumulates one frame payload. Writers are pooled: encoding a
// response on the serving hot path reuses the previous request's buffer
// and intern table.
type writer struct {
	buf  []byte
	strs map[string]uint64
}

var writerPool = sync.Pool{New: func() any {
	return &writer{buf: make([]byte, 0, 1024), strs: make(map[string]uint64, 16)}
}}

func getWriter() *writer { return writerPool.Get().(*writer) }

func putWriter(w *writer) {
	if cap(w.buf) > 1<<20 { // don't let one huge frame pin memory forever
		return
	}
	w.buf = w.buf[:0]
	clear(w.strs)
	writerPool.Put(w)
}

func (w *writer) u64(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) i64(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) byte(b byte)   { w.buf = append(w.buf, b) }
func (w *writer) f64(v float64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }

// str writes an interned string: a back-reference when the string was
// seen before in this frame, its bytes otherwise.
func (w *writer) str(s string) {
	if ref, ok := w.strs[s]; ok {
		w.u64(ref)
		return
	}
	w.byte(0)
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.strs[s] = uint64(len(w.strs)) + 1
}

// frame appends the finished frame (header + payload) to dst.
func frame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, magic[0], magic[1], magic[2], FormatVersion, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// reader consumes one frame payload, remembering the first error so call
// sites stay linear; every length and count is validated against the
// bytes remaining before any allocation is sized from it.
type reader struct {
	b    []byte
	off  int
	strs []string
	err  error
	// key, when non-nil, collects the bytes read since b[mark] with
	// every interned string replaced by its index in strs. An index
	// names one string within the frame, so an exact copy of a batch
	// item reads the same wherever it sits, and the key never outgrows
	// the frame by more than a few bytes per string.
	key  []byte
	mark int
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binary: "+format, args...)
	}
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.err = errTruncated
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// count reads an element count and bounds it by the bytes remaining
// (every element costs at least one byte), so a fuzzed count can never
// size an allocation beyond the frame itself.
func (r *reader) count() int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.rem()) {
		r.err = errTruncated
		return 0
	}
	return int(n)
}

// str reads an interned string, writing its table index to r.key when
// a key is being collected.
func (r *reader) str() string {
	start := r.off
	s, idx := r.internedStr()
	if r.key != nil && r.err == nil {
		r.key = binary.AppendUvarint(append(r.key, r.b[r.mark:start]...), idx)
		r.mark = r.off
	}
	return s
}

// internedStr reads a string written inline or as a back-reference and
// returns it with its 1-based index in the frame's string table.
func (r *reader) internedStr() (string, uint64) {
	tag := r.u64()
	if r.err != nil {
		return "", 0
	}
	if tag != 0 {
		if tag > uint64(len(r.strs)) {
			r.fail("string back-reference %d beyond table of %d", tag, len(r.strs))
			return "", 0
		}
		return r.strs[tag-1], tag
	}
	n := r.u64()
	if r.err != nil {
		return "", 0
	}
	if n > uint64(r.rem()) {
		r.err = errTruncated
		return "", 0
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	r.strs = append(r.strs, s)
	return s, uint64(len(r.strs))
}

// decodeFrame validates the frame header and returns a reader positioned
// at the payload. The declared payload length must match the bytes
// present exactly: a truncated body and a surplus-bytes body both fail
// here, before any payload parsing.
func decodeFrame(data []byte, wantKind byte) (*reader, error) {
	if len(data) < 6 {
		return nil, errTruncated
	}
	if data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] {
		return nil, errors.New("binary: bad magic")
	}
	if data[3] != FormatVersion {
		return nil, fmtErr("%w: frame format %d (want %d)", wire.ErrVersion, data[3], FormatVersion)
	}
	kind := data[4]
	plen, n := binary.Uvarint(data[5:])
	if n <= 0 {
		return nil, errTruncated
	}
	payload := data[5+n:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: declared payload %d bytes, got %d", errTruncated, plen, len(payload))
	}
	if kind != wantKind {
		return nil, fmt.Errorf("binary: frame kind %d (want %d)", kind, wantKind)
	}
	return &reader{b: payload}, nil
}

// IsBinary reports whether data begins with the binary frame magic —
// a cheap sniff used in error paths and tests.
func IsBinary(data []byte) bool {
	return len(data) >= 4 && data[0] == magic[0] && data[1] == magic[1] && data[2] == magic[2]
}
