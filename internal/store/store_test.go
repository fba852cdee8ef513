package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkEntry builds a valid entry whose request body (and therefore hash)
// is derived from seed.
func mkEntry(seed int) *Entry {
	req := json.RawMessage(fmt.Sprintf(`{"v":1,"loop":{"name":"l%d"},"options":{}}`, seed))
	sum := sha256.Sum256(req)
	return &Entry{
		Hash:     hex.EncodeToString(sum[:]),
		Request:  req,
		Response: json.RawMessage(fmt.Sprintf(`{"hash":"x","pipelined":true,"ii":%d}`, seed)),
		Trace:    json.RawMessage(`[{"kind":"outcome","result":"pipelined"}]`),
		Verify:   VerifyMeta{Sampled: seed%2 == 0, Passed: seed%2 == 0},
	}
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := mkEntry(1)
	if _, err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, _, err := s.Get(e.Hash)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Request) != string(e.Request) ||
		string(got.Response) != string(e.Response) ||
		string(got.Trace) != string(e.Trace) ||
		got.Verify != e.Verify {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, e)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Writes != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after put+get: %+v", st)
	}
}

func TestGetMissAndBadHash(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if _, _, err := s.Get(strings.Repeat("ab", 32)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: got %v, want ErrNotFound", err)
	}
	// Malformed hashes (including traversal attempts) must fail without
	// touching the filesystem.
	for _, h := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64)} {
		if _, _, err := s.Get(h); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q): got %v, want ErrNotFound", h, err)
		}
	}
	if st := s.Stats(); st.Misses != 5 {
		t.Fatalf("misses = %d, want 5", st.Misses)
	}
}

func TestPutRejectsWrongHash(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := mkEntry(1)
	e.Hash = strings.Repeat("00", 32)
	if _, err := s.Put(e); err == nil {
		t.Fatal("Put accepted an entry whose hash does not match its request")
	}
	e.Hash = "nothex"
	if _, err := s.Put(e); err == nil {
		t.Fatal("Put accepted a malformed hash")
	}
}

// TestCorruptionDetected flips bytes in every section and in the file
// structure; each corruption must surface as ErrCorrupt and remove the
// entry so it can be refilled.
func TestCorruptionDetected(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"not an entry", func(b []byte) []byte { return []byte("}{") }},
		{"request flipped", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"name":"l1"`, `"name":"l2"`, 1))
		}},
		{"response flipped", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"ii":1`, `"ii":9`, 1))
		}},
		{"trace flipped", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"result":"pipelined"`, `"result":"sequential"`, 1))
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{})
			e := mkEntry(1)
			if _, err := s.Put(e); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := filepath.Join(dir, e.Hash[:2], e.Hash+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatalf("mangle: %v", err)
			}
			if _, _, err := s.Get(e.Hash); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get on %s entry: got %v, want ErrCorrupt", tc.name, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat err %v)", err)
			}
			if s.Contains(e.Hash) {
				t.Fatal("corrupt entry still indexed")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	e1, e2, e3 := mkEntry(1), mkEntry(2), mkEntry(3)
	one := EncodedSize(e1)
	// Budget for two entries (entry sizes differ by a byte or two at
	// most; 2.5x one entry is comfortably "two but not three").
	s := open(t, dir, Options{MaxBytes: one*2 + one/2})
	for _, e := range []*Entry{e1, e2, e3} {
		if _, err := s.Put(e); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Contains(e1.Hash) {
		t.Fatal("oldest entry survived eviction")
	}
	if !s.Contains(e2.Hash) || !s.Contains(e3.Hash) {
		t.Fatal("recent entries evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// A Get refreshes recency: touch e2, add e4, and e3 must go instead.
	if _, _, err := s.Get(e2.Hash); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := s.Put(mkEntry(4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Contains(e2.Hash) {
		t.Fatal("recently used entry evicted")
	}
	if s.Contains(e3.Hash) {
		t.Fatal("least recently used entry survived")
	}
}

func TestWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	var hashes []string
	for i := 0; i < 5; i++ {
		e := mkEntry(i)
		if _, err := s.Put(e); err != nil {
			t.Fatalf("Put: %v", err)
		}
		hashes = append(hashes, e.Hash)
	}
	wantBytes := s.Bytes()
	s.Close()

	// A fresh process over the same directory sees every entry intact.
	s2 := open(t, dir, Options{})
	if s2.Len() != 5 || s2.Bytes() != wantBytes {
		t.Fatalf("reopen: %d entries / %d bytes, want 5 / %d", s2.Len(), s2.Bytes(), wantBytes)
	}
	for _, h := range hashes {
		if _, _, err := s2.Get(h); err != nil {
			t.Fatalf("Get(%s) after reopen: %v", h[:8], err)
		}
	}
}

// TestPutGetReportSize: Put and Get hand back the entry's file size,
// which is what EncodedSize computes for the entry before it is stored.
func TestPutGetReportSize(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := mkEntry(3)
	want := EncodedSize(e)
	put, err := s.Put(e)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	fi, err := os.Stat(s.path(e.Hash))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := s.Get(e.Hash)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if put != fi.Size() || got != fi.Size() || want != fi.Size() || s.Bytes() != fi.Size() {
		t.Fatalf("Put %d, Get %d, EncodedSize %d, index %d bytes; file is %d bytes", put, got, want, s.Bytes(), fi.Size())
	}
}

func TestReopenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	e := mkEntry(1)
	if _, err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate a crash mid-write: a temp file next to a valid entry.
	shard := filepath.Join(dir, e.Hash[:2])
	stale := filepath.Join(shard, e.Hash+".tmp-123456")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatalf("plant temp file: %v", err)
	}
	s.Close()
	s2 := open(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived reopen (stat err %v)", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopen found %d entries, want 1", s2.Len())
	}
}

// A live store's scan must leave temp files alone: one may belong to a
// Put between its write and its rename, which would then fail.
func TestScanKeepsInFlightTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	e := mkEntry(1)
	shard := filepath.Join(dir, e.Hash[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(shard, e.Hash+".tmp-123456")
	if err := os.WriteFile(tmp, e.Encode(), 0o644); err != nil {
		t.Fatalf("plant temp file: %v", err)
	}
	if err := s.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(shard, e.Hash+".json")); err != nil {
		t.Fatalf("scan removed a temp file a writer still holds: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("scan indexed a temp file: %d entries", s.Len())
	}
}

func TestScanReconcilesExternalChanges(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	e1, e2 := mkEntry(1), mkEntry(2)
	for _, e := range []*Entry{e1, e2} {
		if _, err := s.Put(e); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Remove one entry behind the store's back; Scan must notice.
	if err := os.Remove(filepath.Join(dir, e1.Hash[:2], e1.Hash+".json")); err != nil {
		t.Fatalf("external remove: %v", err)
	}
	if err := s.Scan(); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if s.Contains(e1.Hash) || !s.Contains(e2.Hash) {
		t.Fatalf("scan reconciliation wrong: contains e1=%v e2=%v",
			s.Contains(e1.Hash), s.Contains(e2.Hash))
	}
}

func TestBackgroundScannerEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	one := EncodedSize(mkEntry(1))
	s := open(t, dir, Options{MaxBytes: one * 10, ScanInterval: 5 * time.Millisecond})
	for i := 0; i < 5; i++ {
		if _, err := s.Put(mkEntry(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Shrink the budget by mutating nothing — instead plant extra entries
	// externally so only the scanner can find them and push usage over.
	for i := 10; i < 30; i++ {
		e := mkEntry(i)
		data := e.Encode()
		shard := filepath.Join(dir, e.Hash[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, e.Hash+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Scans > 0 && st.Bytes <= one*10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scanner never enforced budget: %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFsyncOption(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fsync: true})
	e := mkEntry(1)
	if _, err := s.Put(e); err != nil {
		t.Fatalf("Put with fsync: %v", err)
	}
	if _, _, err := s.Get(e.Hash); err != nil {
		t.Fatalf("Get after fsynced put: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := mkEntry(g*100 + i%7)
				if _, err := s.Put(e); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(e.Hash); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
				s.Contains(e.Hash)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestPutWritesEntryEncodingOnce: an entry DecodeEntry returned — a peer
// fill, an anti-entropy pull — is written as the bytes it was decoded
// from, byte for byte, without hashing or encoding it again, so the
// write allocates less than the entry does; and an entry Put encoded
// itself keeps that encoding as its one copy — its sections alias it —
// so serving it after the write copies nothing.
func TestPutWritesEntryEncodingOnce(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := mkEntry(5)
	e.Trace = json.RawMessage(`[` + strings.Repeat(`{"kind":"bump"},`, 4<<10) + `{}]`)
	data := e.Encode()
	d, err := DecodeEntry(e.Hash, data)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size, err := s.Put(d)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(data)) {
		t.Errorf("Put of a decoded %d-byte entry allocated %d bytes, want less than the entry", len(data), alloc)
	}
	file, err := os.ReadFile(s.path(e.Hash))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) || !bytes.Equal(file, data) {
		t.Errorf("wrote %d bytes; the file differs from the decoded bytes (%d vs %d)", size, len(file), len(data))
	}

	local := mkEntry(6)
	if _, err := s.Put(local); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if file, err = os.ReadFile(s.path(local.Hash)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Encode(), file) {
		t.Error("Encode after Put differs from the file Put wrote")
	}
	if n := testing.AllocsPerRun(10, func() { local.Encode() }); n != 0 {
		t.Errorf("Encode after Put allocated %v times, want the written encoding kept", n)
	}
	enc, off := local.Encode(), headerSize
	for i, sec := range [][]byte{local.Request, local.Response, local.Trace} {
		if len(sec) == 0 || &sec[0] != &enc[off] {
			t.Errorf("section %d (%d bytes) does not alias the kept encoding at offset %d", i, len(sec), off)
		}
		off += len(sec)
	}
}
