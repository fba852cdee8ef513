// Package store is the content-addressed persistent artifact store of
// the ltspd service: one entry per compiled loop, keyed by the
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
//   - Reads are corruption-checked: DecodeEntry checks the declared
//     section lengths, recomputes the content hash of the stored
//     canonical request (which must equal the entry's key) and an entry
//     checksum over all sections. A corrupt or truncated entry — and an
//     entry in an older format — is deleted and reported as ErrCorrupt:
//     it can be refilled from a peer or recompiled, never served.
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
	"encoding/hex"
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

// path returns the entry file for a hash, sharded by its first two hex
// characters to keep directory fan-out bounded. The name keeps the .json
// suffix of the version-1 format, so an old entry is found under its
// name, fails the magic check and is quarantined instead of lingering
// unindexed.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// Put persists an entry, atomically replacing any existing one, and
// enforces the byte budget. The entry's Hash must be the content hash of
// its canonical Request; Put recomputes and checks it, and stamps the
// section checksum. It writes the entry's encoding (see Entry.Encode)
// and returns the number of bytes written: the entry's EncodedSize.
func (s *Store) Put(e *Entry) (int64, error) {
	if !ValidHash(e.Hash) {
		return 0, fmt.Errorf("store: malformed hash %q", e.Hash)
	}
	if sum := sha256.Sum256(e.Request); hex.EncodeToString(sum[:]) != e.Hash {
		return 0, fmt.Errorf("store: request content hash %x does not match entry hash %s", sum, e.Hash)
	}
	sum := e.sectionSum()
	e.Version, e.Checksum = EntryVersion, hex.EncodeToString(sum[:])
	data := e.encode(sum)
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

// Get reads the entry for a hash, marking it recently used, and returns
// it with the number of bytes it occupies on disk; the entry's Encode
// returns the file's bytes. A missing entry
// returns ErrNotFound; an entry that fails its integrity checks is
// deleted and returns ErrCorrupt.
func (s *Store) Get(hash string) (*Entry, int64, error) {
	if !ValidHash(hash) {
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
	e, err := DecodeEntry(hash, data)
	if err != nil {
		// Corrupt on disk: remove so the slot can be refilled cleanly.
		s.drop(hash, true)
		s.corrupt.Add(1)
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.hits.Add(1)
	return e, int64(len(data)), nil
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
	if !ValidHash(hash) {
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
		if !ok || !ValidHash(hash) {
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
