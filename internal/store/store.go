// Package store is the content-addressed persistent artifact store of
// the ltspd service: one JSON entry per compiled loop, keyed by the
// canonical content hash of its compile request (wire.CompileRequest.
// Hash) and holding everything a peer or a restarted process needs to
// serve the compilation without redoing it — the canonical request, the
// compile response, the decision trace, and the verification metadata.
//
// Durability and integrity:
//
//   - Writes are atomic: the entry is written to a temp file in the
//     destination shard directory and renamed into place, so a crash
//     mid-write never leaves a partial entry under a valid name. With
//     Options.Fsync the file (and its directory) are fsynced before the
//     rename is considered durable.
//   - Reads are corruption-checked: the store recomputes the content
//     hash of the stored canonical request (which must equal the entry's
//     key) and an entry checksum over all sections. A corrupt or
//     truncated entry is deleted and reported as ErrCorrupt — it can be
//     refilled from a peer or recompiled, never served.
//   - Disk usage is LRU-bounded: an in-memory recency index (rebuilt
//     from file mtimes on Open) evicts the least recently used entries
//     when the store exceeds Options.MaxBytes, inline on writes and from
//     a background eviction scanner that also reconciles the index with
//     entries added or removed behind the store's back.
//
// The store layers under the in-memory artifact cache: the service
// checks memory, then disk, then its cluster peers, then compiles.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EntryVersion tags the on-disk entry format.
const EntryVersion = 1

// VerifyMeta records what the trust-but-verify layer knew about the
// artifact when it was stored, so a peer that fills its cache from this
// entry can tell a sampled-and-verified artifact from an unverified one.
type VerifyMeta struct {
	// Sampled reports whether the compilation went through independent
	// verification (the structural checker plus the differential oracle).
	Sampled bool `json:"sampled,omitempty"`
	// Passed reports the verdict; meaningful only when Sampled (a failed
	// verification never produces an artifact, so stored entries always
	// have Passed == Sampled — the field exists for forward compatibility
	// with advisory verification modes).
	Passed bool `json:"passed,omitempty"`
}

// Entry is one persisted artifact. Request is the canonical compile
// request whose sha256 is the entry's hash; Response and Trace are the
// service's wire-format compile response and decision trace.
type Entry struct {
	Version     int             `json:"v"`
	Hash        string          `json:"hash"`
	Request     json.RawMessage `json:"request"`
	Response    json.RawMessage `json:"response"`
	Trace       json.RawMessage `json:"trace,omitempty"`
	Verify      VerifyMeta      `json:"verify"`
	CreatedUnix int64           `json:"createdUnix"`
	// Checksum is the hex sha256 over the length-prefixed request,
	// response and trace sections; Get recomputes and compares it.
	Checksum string `json:"checksum"`
}

// checksum computes the entry checksum: sha256 over the three variable
// sections, each preceded by its length so section boundaries cannot be
// confused.
func (e *Entry) checksum() string {
	h := sha256.New()
	var n [8]byte
	for _, sec := range [][]byte{e.Request, e.Response, e.Trace} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(sec)))
		h.Write(n[:])
		h.Write(sec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Sentinel errors. Match with errors.Is.
var (
	// ErrNotFound: no entry under the hash.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorrupt: the entry failed its integrity check and was removed.
	ErrCorrupt = errors.New("store: artifact corrupt")
)

// Options parameterizes a Store.
type Options struct {
	// MaxBytes bounds the store's total entry bytes; the least recently
	// used entries are evicted to stay under it. <= 0 means unbounded.
	MaxBytes int64
	// Fsync makes writes durable before they are visible: the entry file
	// is fsynced before the rename and the shard directory after it.
	// Off by default — an entry lost to a crash is re-fillable, and
	// fsync costs milliseconds per write on most filesystems.
	Fsync bool
	// ScanInterval is the period of the background eviction scanner,
	// which reconciles the index with the directory (entries added or
	// deleted behind the store's back) and re-enforces MaxBytes. <= 0
	// disables the scanner; eviction still happens inline on Put.
	ScanInterval time.Duration
}

// Stats counts store activity. Bytes/Entries describe current contents;
// the counters are cumulative since Open.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Writes    int64
	Evictions int64
	Corrupt   int64
	Scans     int64
}

type indexEntry struct {
	hash string
	size int64
}

// Store is a content-addressed on-disk artifact store. It is safe for
// concurrent use by multiple goroutines within one process; it assumes
// it owns its directory (concurrent processes sharing a directory are
// tolerated by the scanner but not coordinated).
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *indexEntry
	entries map[string]*list.Element
	bytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64
	scans     atomic.Int64

	scanStop chan struct{}
	scanDone chan struct{}
}

// Open opens (creating if needed) a store rooted at dir, scans the
// existing entries into the recency index (ordered by file modification
// time, oldest least recent), removes stale temp files, enforces the
// byte budget, and starts the eviction scanner when configured.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
	if err := s.rebuild(true); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enforceLocked()
	s.mu.Unlock()
	if opts.ScanInterval > 0 {
		s.scanStop = make(chan struct{})
		s.scanDone = make(chan struct{})
		go s.scanLoop()
	}
	return s, nil
}

// Close stops the background scanner (if running). The store remains
// usable; Close exists so tests and drains can assert no goroutine is
// left behind.
func (s *Store) Close() {
	if s.scanStop != nil {
		close(s.scanStop)
		<-s.scanDone
		s.scanStop, s.scanDone = nil, nil
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validHash reports whether h is a well-formed content hash (64 lowercase
// hex characters). Hashes arrive from URL paths, so this is also the
// path-traversal guard: anything else never touches the filesystem.
func validHash(h string) bool {
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

// path returns the entry file for a hash, sharded by its first two hex
// characters to keep directory fan-out bounded.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// Put persists an entry, atomically replacing any existing one, and
// enforces the byte budget. The entry's Hash must be the content hash of
// its canonical Request; Put recomputes and checks it, and stamps the
// section checksum. It returns the number of bytes written: the entry's
// EncodedSize.
func (s *Store) Put(e *Entry) (int64, error) {
	if !validHash(e.Hash) {
		return 0, fmt.Errorf("store: malformed hash %q", e.Hash)
	}
	sum := sha256.Sum256(e.Request)
	if got := hex.EncodeToString(sum[:]); got != e.Hash {
		return 0, fmt.Errorf("store: request content hash %s does not match entry hash %s", got, e.Hash)
	}
	e.Version = EntryVersion
	e.Checksum = e.checksum()
	data, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("store: encoding entry: %w", err)
	}
	path := s.path(e.Hash)
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	// Atomic publish: temp file in the destination directory (same
	// filesystem, so rename is atomic), then rename over the final name.
	tmp, err := os.CreateTemp(shard, e.Hash+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return 0, fmt.Errorf("store: %w", err)
	}
	if s.opts.Fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			cleanup()
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: %w", err)
	}
	if s.opts.Fsync {
		if d, err := os.Open(shard); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	s.writes.Add(1)

	s.mu.Lock()
	size := int64(len(data))
	if el, ok := s.entries[e.Hash]; ok {
		ie := el.Value.(*indexEntry)
		s.bytes += size - ie.size
		ie.size = size
		s.ll.MoveToFront(el)
	} else {
		s.entries[e.Hash] = s.ll.PushFront(&indexEntry{hash: e.Hash, size: size})
		s.bytes += size
	}
	s.enforceLocked()
	s.mu.Unlock()
	return size, nil
}

// EncodedSize returns the number of bytes the entry would occupy on
// disk: the length of exactly the encoding Put writes (and Put and Get
// return). It is the shared byte-accounting unit — the server's
// in-memory cache weighs artifacts with it, so the memory and disk layers
// report commensurable size metrics. It encodes the entry to learn the
// length, so callers that just wrote or read the entry use the count Put
// or Get returned instead.
func EncodedSize(e *Entry) int64 {
	c := *e
	c.Version = EntryVersion
	c.Checksum = c.checksum()
	data, err := json.Marshal(&c)
	if err != nil {
		return 0
	}
	return int64(len(data))
}

// Get reads the entry for a hash, marking it recently used, and returns
// it with the number of bytes it occupies on disk. A missing entry
// returns ErrNotFound; an entry that fails its integrity checks is
// deleted and returns ErrCorrupt.
func (s *Store) Get(hash string) (*Entry, int64, error) {
	if !validHash(hash) {
		s.misses.Add(1)
		return nil, 0, fmt.Errorf("%w: malformed hash %q", ErrNotFound, hash)
	}
	s.mu.Lock()
	el, ok := s.entries[hash]
	if ok {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, 0, ErrNotFound
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		// Evicted or externally removed between index lookup and read.
		s.drop(hash, false)
		s.misses.Add(1)
		return nil, 0, ErrNotFound
	}
	e, err := decodeEntry(hash, data)
	if err != nil {
		// Corrupt on disk: remove so the slot can be refilled cleanly.
		s.drop(hash, true)
		s.corrupt.Add(1)
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.hits.Add(1)
	return e, int64(len(data)), nil
}

// decodeEntry parses and integrity-checks one stored entry.
func decodeEntry(hash string, data []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("undecodable entry: %v", err)
	}
	if e.Version != EntryVersion {
		return nil, fmt.Errorf("unsupported entry version %d", e.Version)
	}
	if e.Hash != hash {
		return nil, fmt.Errorf("entry names hash %s, stored under %s", e.Hash, hash)
	}
	sum := sha256.Sum256(e.Request)
	if got := hex.EncodeToString(sum[:]); got != hash {
		return nil, fmt.Errorf("request content hash %s does not match key %s", got, hash)
	}
	if got := e.checksum(); got != e.Checksum {
		return nil, fmt.Errorf("section checksum mismatch")
	}
	return &e, nil
}

// Contains reports whether an entry is indexed (without reading or
// integrity-checking it, and without touching recency).
func (s *Store) Contains(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[hash]
	return ok
}

// Delete removes an entry if present.
func (s *Store) Delete(hash string) {
	if !validHash(hash) {
		return
	}
	s.drop(hash, true)
}

// drop removes hash from the index (and, when removeFile, from
// disk). Safe to call whether or not the entry is indexed.
func (s *Store) drop(hash string, removeFile bool) {
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		s.bytes -= el.Value.(*indexEntry).size
		s.ll.Remove(el)
		delete(s.entries, hash)
	}
	s.mu.Unlock()
	if removeFile {
		_ = os.Remove(s.path(hash))
	}
}

// enforceLocked evicts least-recently-used entries until the store is
// within its byte budget. Caller holds s.mu.
func (s *Store) enforceLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && s.ll.Len() > 0 {
		oldest := s.ll.Back()
		ie := oldest.Value.(*indexEntry)
		s.ll.Remove(oldest)
		delete(s.entries, ie.hash)
		s.bytes -= ie.size
		_ = os.Remove(s.path(ie.hash))
		s.evictions.Add(1)
	}
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the total indexed entry bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns a snapshot of the store's counters and contents.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.ll.Len(), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:   entries,
		Bytes:     bytes,
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		Scans:     s.scans.Load(),
	}
}

// Keys returns the indexed hashes, most recently used first.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*indexEntry).hash)
	}
	return out
}

// rebuild scans the directory tree into a fresh index, ordering entries
// by file modification time (oldest = least recently used). With
// removeTemps it also deletes temp files a crashed writer left behind;
// that is safe only on Open, since while the store is live a temp file
// may be a Put in flight.
func (s *Store) rebuild(removeTemps bool) error {
	type fileInfo struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.Contains(name, ".tmp-") {
			if removeTemps {
				_ = os.Remove(path) // crashed mid-write; the rename never happened
			}
			return nil
		}
		hash, ok := strings.CutSuffix(name, ".json")
		if !ok || !validHash(hash) {
			return nil // not ours; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with an eviction elsewhere
		}
		files = append(files, fileInfo{hash: hash, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ll.Init()
	clear(s.entries)
	s.bytes = 0
	for _, f := range files {
		// Oldest first + PushFront leaves the newest at the front (MRU).
		s.entries[f.hash] = s.ll.PushFront(&indexEntry{hash: f.hash, size: f.size})
		s.bytes += f.size
	}
	return nil
}

// Scan reconciles the index with the directory (picking up entries
// written or removed behind the store's back, preserving in-process
// recency for entries that survived) and re-enforces the byte budget.
func (s *Store) Scan() error {
	s.scans.Add(1)
	// Snapshot current recency so the rebuilt index can preserve it.
	recency := s.Keys()
	if err := s.rebuild(false); err != nil {
		return err
	}
	s.mu.Lock()
	// rebuild ordered by mtime; replay the in-process recency on top,
	// oldest first so the most recently used ends up at the front.
	for i := len(recency) - 1; i >= 0; i-- {
		if el, ok := s.entries[recency[i]]; ok {
			s.ll.MoveToFront(el)
		}
	}
	s.enforceLocked()
	s.mu.Unlock()
	return nil
}

// scanLoop is the background eviction scanner.
func (s *Store) scanLoop() {
	defer close(s.scanDone)
	t := time.NewTicker(s.opts.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.Scan()
		case <-s.scanStop:
			return
		}
	}
}
