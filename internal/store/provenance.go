package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Provenance: a hash-chained, Merkle-batched append-only log of every
// artifact creation this node performed — local compiles, peer
// cache-fills, anti-entropy pulls. Each record pins the store entry's
// section checksum at the moment the artifact was created, so a store
// entry later rewritten in place (even with a consistently restamped
// Checksum field, which the store's own integrity check cannot catch)
// diverges from its provenance record and is quarantined instead of
// served.
//
// The log itself is tamper-evident: every record carries the sha256 of
// its predecessor (a hash chain), and every BatchSize records are
// additionally summarized by a Merkle root appended to a second,
// root-chained file. Rewriting any past record breaks the chain and the
// batch root above it; truncating the tail is caught by the roots file
// extending past the records. Verify replays both files and checks
// every link.
//
// Appends are cheap by construction: the caller's hot path updates an
// in-memory index (the quarantine check reads only that) and enqueues
// the durable write to a single background writer that assigns
// sequence numbers, chains, and batches. The queue is bounded and
// non-blocking — under absurd pressure records are dropped from the
// durable log (counted, surfaced in metrics) rather than stalling a
// compile.

// Provenance record sources. Logs written by older builds may also hold
// "read_repair" records (replicas pushed by a since-removed mechanism);
// Verify and Records treat a source as an opaque string, so those logs
// still verify.
const (
	SourceCompile     = "compile"
	SourcePeerFill    = "peer_fill"
	SourceAntiEntropy = "anti_entropy"
)

// DefaultBatchSize is how many records one Merkle batch covers.
const DefaultBatchSize = 64

// Record is one provenance log entry.
type Record struct {
	Seq      uint64 `json:"seq"`
	TimeUnix int64  `json:"t"`
	Hash     string `json:"hash"`   // artifact hash
	Source   string `json:"source"` // compile | peer_fill | anti_entropy (old logs: read_repair)
	Checksum string `json:"checksum"`
	Prev     string `json:"prev,omitempty"` // previous record's Sum ("" for the genesis record)
	Sum      string `json:"sum"`            // sha256 over this record's chained content
}

// sum computes the record's chained hash over every field except Sum
// itself. The fields are joined with NUL so boundaries cannot be
// confused; the version tag makes future format changes explicit.
func (r *Record) sum() string {
	h := sha256.New()
	h.Write([]byte("ltsp-prov-v1\x00" + strconv.FormatUint(r.Seq, 10) + "\x00" +
		strconv.FormatInt(r.TimeUnix, 10) + "\x00" + r.Hash + "\x00" +
		r.Source + "\x00" + r.Checksum + "\x00" + r.Prev))
	return hex.EncodeToString(h.Sum(nil))
}

// Root is one Merkle batch summary: the root over BatchSize consecutive
// record sums, chained to the previous root.
type Root struct {
	Batch    int    `json:"batch"` // 0-based batch index
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Root     string `json:"root"`
	Prev     string `json:"prev,omitempty"` // previous root's Sum
	Sum      string `json:"sum"`
}

func (r *Root) sum() string {
	h := sha256.New()
	h.Write([]byte("ltsp-prov-root-v1\x00" + strconv.Itoa(r.Batch) + "\x00" +
		strconv.FormatUint(r.FirstSeq, 10) + "\x00" + strconv.FormatUint(r.LastSeq, 10) + "\x00" +
		r.Root + "\x00" + r.Prev))
	return hex.EncodeToString(h.Sum(nil))
}

// merkleRoot folds a batch of record sums into one root: leaves are
// domain-separated hashes of each sum, interior nodes hash their
// ordered children, and an odd node is paired with itself.
func merkleRoot(sums []string) string {
	if len(sums) == 0 {
		return ""
	}
	level := make([]string, len(sums))
	for i, s := range sums {
		h := sha256.Sum256([]byte("leaf\x00" + s))
		level[i] = hex.EncodeToString(h[:])
	}
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i < len(level); i += 2 {
			l := level[i]
			r := l
			if i+1 < len(level) {
				r = level[i+1]
			}
			h := sha256.Sum256([]byte("node\x00" + l + "\x00" + r))
			next = append(next, hex.EncodeToString(h[:]))
		}
		level = next
	}
	return level[0]
}

// LogOptions parameterizes a provenance Log.
type LogOptions struct {
	// BatchSize is the Merkle batch width (default DefaultBatchSize).
	BatchSize int
	// Fsync makes each completed batch durable before continuing. Off by
	// default for the same reason as the store's writes.
	Fsync bool
	// QueueDepth bounds the append queue (default 1024).
	QueueDepth int
	// KeepPerHash bounds in-memory records retained per artifact for
	// Records (default 4; the full history stays on disk).
	KeepPerHash int
}

func (o LogOptions) withDefaults() LogOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.KeepPerHash <= 0 {
		o.KeepPerHash = 4
	}
	return o
}

// Log is an open provenance log. All methods are safe for concurrent
// use; a nil *Log is valid everywhere and records nothing, so call
// sites need no provenance-enabled branches.
type Log struct {
	opts LogOptions
	dir  string

	mu      sync.RWMutex
	latest  map[string]string   // hash -> latest recorded entry checksum
	byHash  map[string][]Record // hash -> recent records (capped)
	headSeq uint64
	headSum string
	roots   []Root
	pending []string // record sums since the last completed batch

	records atomic.Uint64 // appended to the durable log
	dropped atomic.Uint64 // lost to queue overflow

	ops      chan provOp
	quit     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup

	logF   *os.File
	rootsF *os.File
	logW   *bufio.Writer
	rootsW *bufio.Writer
}

type provOp struct {
	rec Record        // Seq/TimeUnix/Prev/Sum assigned by the writer
	ack chan struct{} // non-nil: a Barrier, no record
}

// LogPath returns the records file path for a store directory (the CI
// job uploads it as a build artifact).
func LogPath(dir string) string { return filepath.Join(dir, "provenance.log") }

// RootsPath returns the Merkle roots file path.
func RootsPath(dir string) string { return filepath.Join(dir, "provenance.roots") }

// OpenLog opens (creating if needed) the provenance log in dir,
// replaying and verifying the existing chain. A broken chain — a
// rewritten, reordered or truncated log — fails the open; the caller
// decides whether to quarantine the files and start fresh.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		opts:   opts,
		dir:    dir,
		latest: make(map[string]string),
		byHash: make(map[string][]Record),
		ops:    make(chan provOp, opts.QueueDepth),
		quit:   make(chan struct{}),
	}
	if err := l.replay(); err != nil {
		return nil, err
	}
	var err error
	l.logF, err = os.OpenFile(LogPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.rootsF, err = os.OpenFile(RootsPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.logF.Close()
		return nil, err
	}
	l.logW = bufio.NewWriter(l.logF)
	l.rootsW = bufio.NewWriter(l.rootsF)
	l.done.Add(1)
	go l.writer()
	return l, nil
}

// replay loads and verifies the on-disk chain into the in-memory state.
func (l *Log) replay() error {
	recs, roots, err := readChain(l.dir, l.opts.BatchSize)
	if err != nil {
		return err
	}
	for _, r := range recs {
		l.indexRecord(r)
		l.headSeq, l.headSum = r.Seq, r.Sum
		l.pending = append(l.pending, r.Sum)
		if len(l.pending) == l.opts.BatchSize {
			l.pending = l.pending[:0]
		}
	}
	l.records.Store(l.headSeq)
	l.roots = roots
	// pending currently holds the sums since the last batch boundary by
	// count; recompute precisely from the roots in case BatchSize changed
	// between runs.
	if n := len(roots); n > 0 {
		covered := roots[n-1].LastSeq
		l.pending = l.pending[:0]
		for _, r := range recs {
			if r.Seq > covered {
				l.pending = append(l.pending, r.Sum)
			}
		}
	}
	return nil
}

// indexRecord folds one record into the lookup maps. Caller owns mu or
// is single-threaded (replay).
func (l *Log) indexRecord(r Record) {
	l.latest[r.Hash] = r.Checksum
	recs := append(l.byHash[r.Hash], r)
	if len(recs) > l.opts.KeepPerHash {
		recs = recs[len(recs)-l.opts.KeepPerHash:]
	}
	l.byHash[r.Hash] = recs
}

// Append records an artifact creation. The in-memory index (which the
// serve-path quarantine check consults) is updated synchronously; the
// chained durable write happens on the background writer. Never
// blocks: queue overflow drops the durable record and counts it.
func (l *Log) Append(hash, source, checksum string) {
	if l == nil {
		return
	}
	select {
	case <-l.quit:
		l.dropped.Add(1)
		return
	default:
	}
	l.mu.Lock()
	l.latest[hash] = checksum
	l.mu.Unlock()
	select {
	case l.ops <- provOp{rec: Record{Hash: hash, Source: source, Checksum: checksum}}:
	default:
		l.dropped.Add(1)
	}
}

// Latest returns the most recently recorded entry checksum for an
// artifact hash. ok is false when the hash has no provenance record.
func (l *Log) Latest(hash string) (string, bool) {
	if l == nil {
		return "", false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	c, ok := l.latest[hash]
	return c, ok
}

// Records returns the retained recent records for a hash, oldest first
// (the full history lives in the on-disk log).
func (l *Log) Records(hash string) []Record {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Record(nil), l.byHash[hash]...)
}

// Head returns the chain head: the last durably written record's
// sequence number and sum.
func (l *Log) Head() (uint64, string) {
	if l == nil {
		return 0, ""
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.headSeq, l.headSum
}

// LatestRoot returns the newest completed Merkle batch root ("" before
// the first batch completes) and how many batches exist.
func (l *Log) LatestRoot() (string, int) {
	if l == nil {
		return "", 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.roots) == 0 {
		return "", 0
	}
	return l.roots[len(l.roots)-1].Root, len(l.roots)
}

// LogStats is the provenance section of the metrics document.
type LogStats struct {
	Records uint64 // records durably appended (chain head seq)
	Batches int    // completed Merkle batches
	Dropped uint64 // records lost to queue overflow
}

// Stats returns the log's counters.
func (l *Log) Stats() LogStats {
	if l == nil {
		return LogStats{}
	}
	l.mu.RLock()
	batches := len(l.roots)
	head := l.headSeq
	l.mu.RUnlock()
	return LogStats{Records: head, Batches: batches, Dropped: l.dropped.Load()}
}

// Barrier blocks until every Append enqueued before it has been durably
// written (tests, and the pre-close flush).
func (l *Log) Barrier() {
	if l == nil {
		return
	}
	select {
	case <-l.quit:
		return
	default:
	}
	ack := make(chan struct{})
	select {
	case l.ops <- provOp{ack: ack}:
		<-ack
	case <-l.quit:
	}
}

// Close drains the queue, flushes, and closes the files. Safe to call
// more than once; a nil receiver is a no-op.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.stopOnce.Do(func() { close(l.quit) })
	l.done.Wait()
	return nil
}

// writer is the single background goroutine that owns the files and
// the chain state.
func (l *Log) writer() {
	defer l.done.Done()
	for {
		select {
		case op := <-l.ops:
			l.process(op)
		case <-l.quit:
			for {
				select {
				case op := <-l.ops:
					l.process(op)
				default:
					l.logW.Flush()
					l.rootsW.Flush()
					if l.opts.Fsync {
						l.logF.Sync()
						l.rootsF.Sync()
					}
					l.logF.Close()
					l.rootsF.Close()
					return
				}
			}
		}
	}
}

func (l *Log) process(op provOp) {
	if op.ack != nil {
		l.logW.Flush()
		l.rootsW.Flush()
		close(op.ack)
		return
	}
	rec := op.rec
	l.mu.Lock()
	rec.Seq = l.headSeq + 1
	rec.TimeUnix = time.Now().Unix()
	rec.Prev = l.headSum
	rec.Sum = rec.sum()
	line, err := json.Marshal(&rec)
	if err != nil { // unreachable for this struct; keep the chain intact anyway
		l.mu.Unlock()
		return
	}
	l.headSeq, l.headSum = rec.Seq, rec.Sum
	l.pending = append(l.pending, rec.Sum)
	l.indexRecord(rec)
	var rootLine []byte
	if len(l.pending) >= l.opts.BatchSize {
		root := Root{
			Batch:    len(l.roots),
			FirstSeq: rec.Seq - uint64(l.opts.BatchSize) + 1,
			LastSeq:  rec.Seq,
			Root:     merkleRoot(l.pending),
		}
		if n := len(l.roots); n > 0 {
			root.Prev = l.roots[n-1].Sum
		}
		root.Sum = root.sum()
		l.roots = append(l.roots, root)
		l.pending = l.pending[:0]
		rootLine, _ = json.Marshal(&root)
	}
	l.mu.Unlock()
	l.records.Add(1)
	l.logW.Write(line)
	l.logW.WriteByte('\n')
	if rootLine != nil {
		l.logW.Flush()
		l.rootsW.Write(rootLine)
		l.rootsW.WriteByte('\n')
		l.rootsW.Flush()
		if l.opts.Fsync {
			l.logF.Sync()
			l.rootsF.Sync()
		}
	}
}

// Verify re-reads the on-disk chain and checks every record sum, every
// chain link, and every Merkle batch root. It is independent of the
// in-memory state, so it also verifies logs written by other processes
// (the CI job runs it over the uploaded artifact).
func (l *Log) Verify() error {
	if l == nil {
		return nil
	}
	l.Barrier()
	_, _, err := readChain(l.dir, l.opts.BatchSize)
	return err
}

// VerifyDir verifies a provenance chain on disk without opening it for
// writing.
func VerifyDir(dir string, batchSize int) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	_, _, err := readChain(dir, batchSize)
	return err
}

// readChain loads and fully verifies the records and roots files.
func readChain(dir string, batchSize int) ([]Record, []Root, error) {
	recs, err := readRecords(LogPath(dir))
	if err != nil {
		return nil, nil, err
	}
	prev := ""
	var seq uint64
	for i := range recs {
		r := &recs[i]
		if r.Seq != seq+1 {
			return nil, nil, fmt.Errorf("provenance: record %d out of sequence (seq %d after %d)", i, r.Seq, seq)
		}
		if r.Prev != prev {
			return nil, nil, fmt.Errorf("provenance: record seq %d breaks the chain", r.Seq)
		}
		if got := r.sum(); got != r.Sum {
			return nil, nil, fmt.Errorf("provenance: record seq %d sum mismatch (rewritten?)", r.Seq)
		}
		prev, seq = r.Sum, r.Seq
	}
	roots, err := readRoots(RootsPath(dir))
	if err != nil {
		return nil, nil, err
	}
	prevRoot := ""
	for i, ro := range roots {
		if ro.Batch != i {
			return nil, nil, fmt.Errorf("provenance: root %d out of order (batch %d)", i, ro.Batch)
		}
		if ro.Prev != prevRoot {
			return nil, nil, fmt.Errorf("provenance: root %d breaks the root chain", i)
		}
		if got := ro.sum(); got != ro.Sum {
			return nil, nil, fmt.Errorf("provenance: root %d sum mismatch (rewritten?)", i)
		}
		first := uint64(i*batchSize) + 1
		last := first + uint64(batchSize) - 1
		if ro.FirstSeq != first || ro.LastSeq != last {
			return nil, nil, fmt.Errorf("provenance: root %d covers seq %d..%d, want %d..%d",
				i, ro.FirstSeq, ro.LastSeq, first, last)
		}
		if ro.LastSeq > seq {
			return nil, nil, fmt.Errorf("provenance: root %d covers seq %d but the log ends at %d (truncated?)",
				i, ro.LastSeq, seq)
		}
		sums := make([]string, 0, batchSize)
		for _, r := range recs[first-1 : last] {
			sums = append(sums, r.Sum)
		}
		if got := merkleRoot(sums); got != ro.Root {
			return nil, nil, fmt.Errorf("provenance: root %d Merkle mismatch (batch rewritten?)", i)
		}
		prevRoot = ro.Sum
	}
	if want := int(seq) / batchSize; len(roots) < want {
		return nil, nil, fmt.Errorf("provenance: %d complete batches but only %d roots (roots truncated?)", want, len(roots))
	}
	return recs, roots, nil
}

func readRecords(path string) ([]Record, error) {
	var recs []Record
	err := readLines(path, func(n int, line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("provenance: %s line %d: %v", filepath.Base(path), n, err)
		}
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

func readRoots(path string) ([]Root, error) {
	var roots []Root
	err := readLines(path, func(n int, line []byte) error {
		var r Root
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("provenance: %s line %d: %v", filepath.Base(path), n, err)
		}
		roots = append(roots, r)
		return nil
	})
	return roots, err
}

func readLines(path string, fn func(n int, line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(string(sc.Bytes()))
		if line == "" {
			continue
		}
		if err := fn(n, []byte(line)); err != nil {
			return err
		}
	}
	return sc.Err()
}
