package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"ltsp"
	"ltsp/internal/store"
	"ltsp/internal/wire"
)

// Artifact is one cached compilation: the store entry every tier
// produces — compiled here, read from disk, filled from a peer or pulled
// by anti-entropy — plus the entry's decoded compile response. Compile,
// trace and artifact requests are all answered from the entry; the
// executable program is built lazily, only when something needs it
// (simulate), by recompiling the entry's canonical request.
type Artifact struct {
	// Entry is the artifact's persisted form: canonical request,
	// serialized response and decision trace, verification metadata.
	Entry *store.Entry
	// Response is Entry.Response decoded.
	Response *wire.CompileResponse
	// Compiled is the executable compilation; nil until the artifact is
	// compiled or materialized in this process.
	Compiled *ltsp.Compiled
	// Size is the artifact's byte-accounting weight: what the entry
	// occupies (or would occupy) in the disk store, so the in-memory LRU
	// and the disk store report commensurable size metrics.
	Size int64
}

// newArtifact builds the cache artifact for e. resp is e.Response
// decoded; nil decodes it here.
func newArtifact(e *store.Entry, resp *wire.CompileResponse) (*Artifact, error) {
	if resp == nil {
		resp = new(wire.CompileResponse)
		if err := json.Unmarshal(e.Response, resp); err != nil {
			return nil, fmt.Errorf("stored response undecodable: %v", err)
		}
	}
	return &Artifact{Entry: e, Response: resp, Size: store.EncodedSize(e)}, nil
}

// ArtifactCache is a content-addressed, LRU-evicting cache of compiled
// loop artifacts keyed by the canonical request hash (wire.CompileRequest.
// Hash). Concurrent requests for the same key are deduplicated: one
// compilation runs, the rest wait for its result (singleflight).
//
// Cached *Artifact values are shared across requests; they are read-only
// after compilation (simulation keeps all mutable state in its own
// interp.State), so no copy is made on lookup.
type ArtifactCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flightCall
	bytes    int64 // sum of cached artifacts' Size
	metrics  *Metrics
}

type cacheEntry struct {
	key  string
	val  *Artifact
	size int64
}

// flightCall is one in-flight computation. Its context (the one fn
// receives) is detached from any single request and canceled only when
// every interested waiter has given up — the refcount covers the creator
// plus each deduplicated waiter. That is what makes hedged requests safe
// to cancel: the losing hedge releases its reference, but the flight
// keeps running as long as anyone still wants the artifact.
type flightCall struct {
	done   chan struct{}
	val    *Artifact
	err    error
	refs   atomic.Int64
	ctx    context.Context
	cancel context.CancelFunc
}

// release drops one waiter reference, canceling the computation when the
// last interested waiter is gone.
func (f *flightCall) release() {
	if f.refs.Add(-1) == 0 {
		f.cancel()
	}
}

// NewArtifactCache creates a cache holding at most capacity artifacts
// (capacity <= 0 disables storage but keeps singleflight deduplication).
func NewArtifactCache(capacity int, m *Metrics) *ArtifactCache {
	return &ArtifactCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flightCall),
		metrics:  m,
	}
}

// Len returns the number of cached artifacts.
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats describes the cache's current contents. Bytes uses the same
// accounting as the disk store (the serialized entry size), so /metrics
// reports commensurable size/entries numbers for both layers.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int   `json:"capacity"`
}

// Stats returns a snapshot of the cache's contents accounting.
func (c *ArtifactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.ll.Len(), Bytes: c.bytes, Capacity: c.capacity}
}

// Add inserts an artifact under key (most recently used), evicting LRU
// entries beyond capacity. It is the cache-fill path for artifacts that
// arrived outside a compile flight (a disk hit on the simulate or trace
// path, a materialization); an existing entry is replaced.
func (c *ArtifactCache) Add(key string, val *Artifact) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, val)
}

// insertLocked pushes a new entry (replacing in place if the key landed
// in the cache through another path meanwhile) and enforces capacity.
// Caller holds c.mu and has checked capacity > 0.
func (c *ArtifactCache) insertLocked(key string, val *Artifact) {
	if el, ok := c.entries[key]; ok {
		ce := el.Value.(*cacheEntry)
		c.bytes += val.Size - ce.size
		ce.val, ce.size = val, val.Size
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, val: val, size: val.Size})
	c.entries[key] = el
	c.bytes += val.Size
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		ce := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.entries, ce.key)
		c.bytes -= ce.size
		c.metrics.CacheEvictions.Add(1)
	}
}

// Get returns the cached artifact for key, if present, marking it
// recently used.
func (c *ArtifactCache) Get(key string) (*Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.metrics.CacheHits.Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Peek returns the cached artifact for key without touching the LRU order
// or the hit counters — introspection reads (the trace endpoint) must not
// perturb eviction behaviour or the cache metrics the compile path
// reports.
func (c *ArtifactCache) Peek(key string) (*Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// runFlight invokes fn with panic containment. Without it, a panicking
// computation would escape resolve with the in-flight entry still
// registered and its done channel never closed — every current and future
// waiter on the key would block forever. The panic becomes an error
// delivered to all waiters instead.
func runFlight(fctx context.Context, fn func(context.Context) (*Artifact, error)) (art *Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			art, err = nil, fmt.Errorf("in-flight computation panicked: %v", r)
		}
	}()
	return fn(fctx)
}

// cacheProbe is the memory tier's lookup result: a completed artifact
// (outcome "hit"), an in-flight computation to join ("dedup"), or a new
// flight the caller must run through resolve ("miss").
type cacheProbe struct {
	art     *Artifact
	call    *flightCall
	outcome string
}

// probe is the memory tier's lookup, split from resolve so the server
// times the lookup itself as the mem_lookup stage, apart from any wait
// on a coalesced computation. A miss registers a new flight, which the
// caller must complete with resolve.
func (c *ArtifactCache) probe(key string) cacheProbe {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.metrics.CacheHits.Add(1)
		return cacheProbe{art: el.Value.(*cacheEntry).val, outcome: outcomeHit}
	}
	if call, ok := c.inflight[key]; ok {
		c.metrics.CacheDedups.Add(1)
		call.refs.Add(1)
		return cacheProbe{call: call, outcome: outcomeDedup}
	}
	fctx, cancel := context.WithCancel(context.Background())
	call := &flightCall{done: make(chan struct{}), ctx: fctx, cancel: cancel}
	call.refs.Store(1)
	c.inflight[key] = call
	c.metrics.CacheMisses.Add(1)
	return cacheProbe{call: call, outcome: outcomeMiss}
}

// resolve completes a probe: a hit returns at once, a joined flight is
// awaited under ctx, and a fresh flight runs fn and publishes its result.
// The bool result reports whether the artifact came from the cache (a
// completed entry or an in-flight computation started by another
// request) rather than from this call's own fn. Errors are returned to
// every waiter and never cached.
//
// ctx is the caller's interest in the result, not the computation's
// lifetime: fn receives a flight context that stays alive while ANY
// waiter (creator or deduplicated) still wants the artifact and is
// canceled once the last one gives up, so abandoned compilations stop
// cooperatively instead of burning a worker. A waiter whose own ctx ends
// while an identical computation is in flight returns ctx.Err()
// immediately without dooming the flight for the others.
func (c *ArtifactCache) resolve(ctx context.Context, key string, p cacheProbe, fn func(context.Context) (*Artifact, error)) (*Artifact, bool, error) {
	call := p.call
	switch p.outcome {
	case outcomeHit:
		return p.art, true, nil
	case outcomeDedup:
		select {
		case <-call.done:
			call.release()
			return call.val, true, call.err
		case <-ctx.Done():
			call.release()
			return nil, false, ctx.Err()
		}
	}
	// The creator's own reference is released when its ctx ends (freeing
	// the flight to stop if nobody else is waiting) or, at the latest,
	// when fn returns.
	stop := context.AfterFunc(ctx, call.release)
	call.val, call.err = runFlight(call.ctx, fn)
	if stop() {
		call.release()
	}
	call.cancel() // flight over either way; free the context's resources

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil && c.capacity > 0 {
		c.insertLocked(key, call.val)
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}
