package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reencode encodes e's fields afresh, bypassing the bytes a decoded
// entry keeps.
func reencode(e *Entry) []byte {
	fresh := &Entry{Hash: e.Hash, Request: e.Request, Response: e.Response, Trace: e.Trace,
		Verify: e.Verify, CreatedUnix: e.CreatedUnix}
	return fresh.Encode()
}

// fourGiBTrace is an encoded entry whose header declares a 4 GiB trace
// section that is not there.
func fourGiBTrace() (string, []byte) {
	e := mkEntry(1)
	data := bytes.Clone(e.Encode())
	binary.LittleEndian.PutUint64(data[30:], 4<<30)
	return e.Hash, data
}

func TestEntryRoundTrip(t *testing.T) {
	noTrace := mkEntry(5)
	noTrace.Trace = nil
	for _, e := range []*Entry{mkEntry(1), mkEntry(2), noTrace} {
		e.CreatedUnix = 1754700000
		data := e.Encode()
		if int64(len(data)) != EncodedSize(e) {
			t.Fatalf("encoding is %d bytes, EncodedSize %d", len(data), EncodedSize(e))
		}
		got, err := DecodeEntry(e.Hash, data)
		if err != nil {
			t.Fatal(err)
		}
		sum := e.sectionSum()
		if got.Version != EntryVersion || got.Hash != e.Hash || got.Checksum != hex.EncodeToString(sum[:]) ||
			!bytes.Equal(got.Request, e.Request) || !bytes.Equal(got.Response, e.Response) ||
			!bytes.Equal(got.Trace, e.Trace) || got.Verify != e.Verify || got.CreatedUnix != e.CreatedUnix {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
		if !bytes.Equal(got.Encode(), data) || !bytes.Equal(reencode(got), data) {
			t.Fatal("a decoded entry does not encode to the bytes it was decoded from")
		}
	}
}

// TestDecodeEntryRejects: every malformed or mislabeled encoding fails
// the decode.
func TestDecodeEntryRejects(t *testing.T) {
	e := mkEntry(1)
	good := e.Encode()
	mangle := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	bigHash, big := fourGiBTrace()
	cases := []struct {
		name, hash string
		data       []byte
		want       string
	}{
		{"empty", e.Hash, nil, "not an entry"},
		{"version-1 JSON", e.Hash, []byte(`{"v":1,"hash":"` + e.Hash + `","request":{}}`), "not an entry"},
		{"truncated", e.Hash, good[:len(good)-1], "declares"},
		{"4 GiB trace", bigHash, big, "declares 4294967296 bytes"},
		{"trailing bytes", e.Hash, append(bytes.Clone(good), 0), "after the trace"},
		{"other version", e.Hash, mangle(func(b []byte) []byte { b[4] = 3; return b }), "version 3"},
		{"unknown flag", e.Hash, mangle(func(b []byte) []byte { b[5] |= 0x80; return b }), "flags"},
		{"other hash", mkEntry(2).Hash, good, "does not match key"},
		{"malformed hash", strings.ToUpper(e.Hash), good, "malformed hash"},
		{"response flipped", e.Hash, bytes.Replace(good, []byte(`"ii":1`), []byte(`"ii":9`), 1), "checksum"},
		{"checksum flipped", e.Hash, mangle(func(b []byte) []byte { b[40] ^= 1; return b }), "checksum"},
	}
	for _, tc := range cases {
		if _, err := DecodeEntry(tc.hash, tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckJSON(t *testing.T) {
	for _, tc := range []struct {
		name            string
		response, trace string
		ok              bool
	}{
		{"valid", `{"ii":1}`, `[]`, true},
		{"no trace", `{"ii":1}`, ``, true},
		{"empty response", ``, `[]`, false},
		{"response cut", `{"ii":1`, `[]`, false},
		{"trace cut", `{"ii":1}`, `[{"kind"`, false},
	} {
		e := &Entry{Response: json.RawMessage(tc.response), Trace: json.RawMessage(tc.trace)}
		if err := e.CheckJSON(); (err == nil) != tc.ok {
			t.Errorf("%s: CheckJSON = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzDecodeEntry: no input panics the decoder, every accepted input
// re-encodes to the same bytes, and decoding allocates no more than the
// input's size plus a constant — it slices sections, it never copies
// them, and a declared length beyond the input fails before any use.
func FuzzDecodeEntry(f *testing.F) {
	for i := 0; i < 4; i++ {
		e := mkEntry(i)
		if i == 3 {
			e.Trace = nil
		}
		e.CreatedUnix = int64(i) * 1754700000
		data := e.Encode()
		f.Add(e.Hash, data)
		if i == 0 {
			f.Add(e.Hash, data[:len(data)/2])
		}
	}
	bigHash, big := fourGiBTrace()
	f.Add(bigHash, big)
	f.Fuzz(func(t *testing.T, hash string, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := DecodeEntry(hash, data)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if got := reencode(e); !bytes.Equal(got, data) {
			t.Fatalf("accepted entry re-encodes differently:\n got %x\nwant %x", got, data)
		}
	})
}

// BenchmarkDecodeEntry is the decode a disk hit and a peer fill pay:
// lengths, two sha256 passes, no copies. The sections are sized like a
// real artifact's: a canonical request, a multi-KB listing, a trace.
func BenchmarkDecodeEntry(b *testing.B) {
	e := mkEntry(1)
	e.Request = json.RawMessage(`{"v":1,"loop":{"name":"` + strings.Repeat("x", 2000) + `"},"options":{}}`)
	e.Hash = hashHex(e.Request)
	e.Response = json.RawMessage(`{"listing":"` + strings.Repeat(`  (p16) ld8 r32 = [r5], 8\n`, 200) + `"}`)
	data := e.Encode()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEntry(e.Hash, data); err != nil {
			b.Fatal(err)
		}
	}
}
