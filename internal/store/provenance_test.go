package store

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func openTestLog(t *testing.T, dir string, opts LogOptions) *Log {
	t.Helper()
	l, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestProvenanceAppendChainAndRoots(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogOptions{BatchSize: 4})
	for i := 0; i < 10; i++ {
		l.Append(testHash(byte(i)), SourceCompile, "sum-"+string(rune('a'+i)))
	}
	l.Barrier()
	if seq, sum := l.Head(); seq != 10 || sum == "" {
		t.Fatalf("head = %d/%q, want seq 10", seq, sum)
	}
	if root, n := l.LatestRoot(); n != 2 || root == "" {
		t.Fatalf("roots = %d (%q), want 2 completed batches of 4", n, root)
	}
	if got := l.Stats(); got.Records != 10 || got.Batches != 2 || got.Dropped != 0 {
		t.Fatalf("stats = %+v", got)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if c, ok := l.Latest(testHash(3)); !ok || c != "sum-d" {
		t.Fatalf("latest = %q/%v", c, ok)
	}
	recs := l.Records(testHash(3))
	if len(recs) != 1 || recs[0].Source != SourceCompile || recs[0].Seq != 4 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestProvenanceLatestWinsAndRecordCap(t *testing.T) {
	l := openTestLog(t, t.TempDir(), LogOptions{BatchSize: 64, KeepPerHash: 2})
	h := testHash(9)
	l.Append(h, SourceCompile, "c1")
	l.Append(h, "read_repair", "c2")
	l.Append(h, SourceAntiEntropy, "c3")
	l.Barrier()
	if c, _ := l.Latest(h); c != "c3" {
		t.Fatalf("latest = %q, want c3", c)
	}
	recs := l.Records(h)
	if len(recs) != 2 || recs[0].Checksum != "c2" || recs[1].Checksum != "c3" {
		t.Fatalf("capped records = %+v", recs)
	}
}

func TestProvenanceReopenContinuesChain(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogOptions{BatchSize: 4})
	for i := 0; i < 6; i++ {
		l.Append(testHash(byte(i)), SourcePeerFill, "s")
	}
	// Logs written before read-repair was removed hold records under its
	// source; they must keep verifying and reading back unchanged.
	legacy := testHash(20)
	l.Append(legacy, "read_repair", "r")
	l.Barrier()
	headSeq, headSum := l.Head()
	l.Close()

	l2 := openTestLog(t, dir, LogOptions{BatchSize: 4})
	if seq, sum := l2.Head(); seq != headSeq || sum != headSum {
		t.Fatalf("reopened head = %d/%q, want %d/%q", seq, sum, headSeq, headSum)
	}
	if c, ok := l2.Latest(testHash(2)); !ok || c != "s" {
		t.Fatalf("reopened index lost records: %q/%v", c, ok)
	}
	for i := 6; i < 9; i++ {
		l2.Append(testHash(byte(i)), SourceAntiEntropy, "s")
	}
	l2.Barrier()
	if seq, _ := l2.Head(); seq != 10 {
		t.Fatalf("continued head = %d, want 10", seq)
	}
	if _, n := l2.LatestRoot(); n != 2 {
		t.Fatalf("batches = %d, want 2 (10 records / 4)", n)
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
	if recs := l2.Records(legacy); len(recs) != 1 || recs[0].Source != "read_repair" || recs[0].Checksum != "r" {
		t.Fatalf("legacy read_repair record after reopen = %+v", recs)
	}
}

func TestProvenanceDetectsRewrittenRecord(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogOptions{BatchSize: 4})
	for i := 0; i < 8; i++ {
		l.Append(testHash(byte(i)), SourceCompile, "honest")
	}
	l.Barrier()
	l.Close()

	// An attacker rewrites record 3's pinned checksum in place, keeping
	// the line well-formed.
	path := LogPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var rec Record
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatal(err)
	}
	rec.Checksum = "poisoned"
	forged, _ := json.Marshal(&rec)
	lines[2] = string(forged)
	os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)

	if _, err := OpenLog(dir, LogOptions{BatchSize: 4}); err == nil {
		t.Fatal("open must reject a rewritten record")
	} else if !strings.Contains(err.Error(), "sum mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Restamping the record sum too still breaks the chain at the next
	// record (its prev no longer matches) — and the Merkle root.
	rec.Sum = rec.sum()
	forged, _ = json.Marshal(&rec)
	lines[2] = string(forged)
	os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
	if _, err := OpenLog(dir, LogOptions{BatchSize: 4}); err == nil {
		t.Fatal("open must reject a restamped record via the chain link")
	}
}

func TestProvenanceDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogOptions{BatchSize: 2})
	for i := 0; i < 6; i++ {
		l.Append(testHash(byte(i)), SourceCompile, "x")
	}
	l.Barrier()
	l.Close()
	data, _ := os.ReadFile(LogPath(dir))
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	os.WriteFile(LogPath(dir), []byte(strings.Join(lines[:3], "\n")+"\n"), 0o644)
	if err := VerifyDir(dir, 2); err == nil {
		t.Fatal("truncating the records under existing roots must fail verification")
	}
}

func TestProvenanceNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Append("h", SourceCompile, "c")
	if _, ok := l.Latest("h"); ok {
		t.Fatal("nil log must report nothing")
	}
	l.Barrier()
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s != (LogStats{}) {
		t.Fatalf("stats = %+v", s)
	}
}

// testHash builds a distinct well-formed (64 hex chars) hash per tag.
func testHash(tag byte) string {
	const hexdig = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hexdig[int(tag)%16]
	}
	b[0] = hexdig[(int(tag)/16)%16]
	return string(b)
}
