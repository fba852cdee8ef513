// Package cache implements the simulator's memory hierarchy: three levels
// of set-associative, LRU, inclusive caches in front of a flat-latency
// memory. Lines carry fill timestamps so that overlapping misses to the
// same line merge (an access to an in-flight line waits for the fill
// instead of paying a full miss), which is what makes load clustering and
// software prefetching effective in the timing model.
//
// Itanium 2 specifics modeled: FP loads bypass the L1D and are serviced
// from L2 with one extra format-conversion cycle; stores are write-through
// to L2; lfetch can target either L1 or (for the paper's heuristic 3,
// OzQ-pressure relief) L2 only.
//
// Levels are filled lazily: a set's lines are allocated on its first fill,
// so a hierarchy costs memory in proportion to the sets a run touches,
// not to the 12 MB L3 it models.
package cache

import (
	"fmt"
	"math"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	Sets      int // power of two
	Ways      int
	LineShift uint // log2 of the line size in bytes
	HitLat    int  // load-to-use latency on a hit
}

// LineSize returns the line size in bytes.
func (c LevelConfig) LineSize() int64 { return 1 << c.LineShift }

// SizeBytes returns the level capacity.
func (c LevelConfig) SizeBytes() int64 { return int64(c.Sets*c.Ways) << c.LineShift }

// validate reports whether the level can index the geometry: a power of
// two sets (the set is the tag's low bits), at least one way, and every
// line's slab index within an int32.
func (c LevelConfig) validate() error {
	switch {
	case c.Sets < 1 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("%d sets, want a power of two >= 1", c.Sets)
	case c.Ways < 1:
		return fmt.Errorf("%d ways, want >= 1", c.Ways)
	case c.Ways > math.MaxInt32/c.Sets:
		return fmt.Errorf("%d sets of %d ways exceed %d lines", c.Sets, c.Ways, math.MaxInt32)
	}
	return nil
}

// Config describes the whole hierarchy.
type Config struct {
	L1, L2, L3 LevelConfig
	// MemLat is the flat main-memory latency in cycles.
	MemLat int
	// FPExtra is added to FP load latencies (format conversion).
	FPExtra int
}

// Validate returns an error naming the first level whose geometry the
// hierarchy cannot model.
func (c Config) Validate() error {
	for i, l := range [...]LevelConfig{c.L1, c.L2, c.L3} {
		if err := l.validate(); err != nil {
			return fmt.Errorf("cache: L%d: %w", i+1, err)
		}
	}
	return nil
}

// DefaultItanium2 returns the hierarchy used in the paper's evaluation:
// 16 KB 4-way 64 B-line L1D (1-cycle), 256 KB 8-way 128 B-line L2
// (5-cycle), 12 MB 12-way 128 B-line L3 (14-cycle), ~200-cycle memory.
func DefaultItanium2() Config {
	return Config{
		L1:      LevelConfig{Name: "L1D", Sets: 64, Ways: 4, LineShift: 6, HitLat: 1},
		L2:      LevelConfig{Name: "L2", Sets: 256, Ways: 8, LineShift: 7, HitLat: 5},
		L3:      LevelConfig{Name: "L3", Sets: 8192, Ways: 12, LineShift: 7, HitLat: 14},
		MemLat:  200,
		FPExtra: 1,
	}
}

// AccessKind distinguishes the request types the hierarchy serves.
type AccessKind uint8

const (
	// Load is a demand data load.
	Load AccessKind = iota
	// Store is a data store (write-through to L2; no L1 allocation).
	Store
	// PrefetchL1 fills the line through to L1.
	PrefetchL1
	// PrefetchL2 fills the line into L2 only (paper heuristic 3).
	PrefetchL2
)

// Result describes how a request was served.
type Result struct {
	// ReadyAt is the absolute cycle the data (or line) is available.
	ReadyAt int64
	// Level is the hierarchy level that served the request: 1-3 for
	// caches, 4 for memory.
	Level int
	// MissedL1 is true when the request went past the L1 (and therefore
	// occupies the OzQ between L1 and L2 until ReadyAt).
	MissedL1 bool
	// Merged is true when the request hit a line already in flight.
	Merged bool
}

// Stats counts hierarchy activity.
type Stats struct {
	Accesses   int64
	HitsL1     int64
	HitsL2     int64
	HitsL3     int64
	Memory     int64
	Merges     int64
	Prefetches int64
}

type line struct {
	tag int64
	// gen is the level generation the line was filled in; the line is
	// valid only while it equals the level's, so Reset empties a level
	// without touching its lines.
	gen     uint64
	fill    int64 // absolute cycle the line arrives
	lastUse int64
}

// level is one cache level, filled lazily: a set costs memory only once a
// line is inserted into it. A set that was never filled holds nothing, as
// if all its ways were invalid.
type level struct {
	cfg LevelConfig
	// slot[s] is 1 + the index in lines of set s's first way, or 0 while
	// set s has never been filled. A set's Ways lines are appended to the
	// slab on its first insert and stay there, so a *line taken from probe
	// is valid only until the level's next insert.
	slot  []int32
	lines []line
	gen   uint64
	tick  int64
}

// newLevel builds an empty level. A geometry that fails validate gets no
// sets, so accessing it panics; Config.Validate is the caller's check.
func newLevel(cfg LevelConfig) *level {
	l := &level{cfg: cfg, gen: 1}
	if cfg.validate() == nil {
		l.slot = make([]int32, cfg.Sets)
	}
	return l
}

// set returns the lines of the set tag maps to, or nil if that set was
// never filled.
func (l *level) set(tag int64) []line {
	i := int(l.slot[tag&int64(len(l.slot)-1)]) - 1
	if i < 0 {
		return nil
	}
	return l.lines[i : i+l.cfg.Ways : i+l.cfg.Ways]
}

// probe returns the line if present.
func (l *level) probe(addr int64) *line {
	tag := addr >> l.cfg.LineShift
	set := l.set(tag)
	for i := range set {
		ln := &set[i]
		if ln.gen == l.gen && ln.tag == tag {
			l.tick++
			ln.lastUse = l.tick
			return ln
		}
	}
	return nil
}

// insert fills addr's line with the given fill time, evicting LRU.
func (l *level) insert(addr, fill int64) {
	tag := addr >> l.cfg.LineShift
	s := tag & int64(len(l.slot)-1)
	if l.slot[s] == 0 {
		l.slot[s] = int32(len(l.lines)) + 1
		l.lines = append(l.lines, make([]line, l.cfg.Ways)...)
	}
	set := l.set(tag)
	victim := 0
	for i := range set {
		ln := &set[i]
		if ln.gen != l.gen {
			victim = i
			break
		}
		if ln.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	l.tick++
	set[victim] = line{tag: tag, gen: l.gen, fill: fill, lastUse: l.tick}
}

// Hierarchy is a three-level cache hierarchy with fill-time tracking.
type Hierarchy struct {
	cfg   Config
	l1    *level
	l2    *level
	l3    *level
	Stats Stats
}

// New builds a hierarchy from the configuration. It does not check cfg:
// a hierarchy whose config fails Validate panics on its first access.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{cfg: cfg, l1: newLevel(cfg.L1), l2: newLevel(cfg.L2), l3: newLevel(cfg.L3)}
}

// Reset empties every level in place, as if the hierarchy were new, but
// keeps the cumulative Stats.
func (h *Hierarchy) Reset() {
	for _, l := range []*level{h.l1, h.l2, h.l3} {
		l.gen++
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access serves one request issued at cycle now. fp marks FP loads (L1
// bypass plus the extra conversion cycle).
func (h *Hierarchy) Access(now, addr int64, fp bool, kind AccessKind) Result {
	h.Stats.Accesses++
	if kind == PrefetchL1 || kind == PrefetchL2 {
		h.Stats.Prefetches++
	}
	extra := int64(0)
	if fp && kind == Load {
		extra = int64(h.cfg.FPExtra)
	}
	useL1 := !fp && kind != Store && kind != PrefetchL2

	if useL1 {
		if ln := h.l1.probe(addr); ln != nil {
			ready := now + int64(h.cfg.L1.HitLat)
			merged := false
			if ln.fill > ready {
				ready = ln.fill
				merged = true
				h.Stats.Merges++
			} else {
				h.Stats.HitsL1++
			}
			return Result{ReadyAt: ready + extra, Level: 1, Merged: merged}
		}
	}
	// Past L1: the request occupies the OzQ.
	res := Result{MissedL1: true}
	if ln := h.l2.probe(addr); ln != nil {
		ready := now + int64(h.cfg.L2.HitLat)
		if ln.fill > ready {
			ready = ln.fill
			res.Merged = true
			h.Stats.Merges++
		} else {
			h.Stats.HitsL2++
		}
		res.ReadyAt, res.Level = ready+extra, 2
		h.fillUpper(addr, ready, useL1, kind)
		return res
	}
	if ln := h.l3.probe(addr); ln != nil {
		ready := now + int64(h.cfg.L3.HitLat)
		if ln.fill > ready {
			ready = ln.fill
			res.Merged = true
			h.Stats.Merges++
		} else {
			h.Stats.HitsL3++
		}
		res.ReadyAt, res.Level = ready+extra, 3
		h.l2.insert(addr, ready)
		h.fillUpper(addr, ready, useL1, kind)
		return res
	}
	h.Stats.Memory++
	ready := now + int64(h.cfg.MemLat)
	res.ReadyAt, res.Level = ready+extra, 4
	h.l3.insert(addr, ready)
	h.l2.insert(addr, ready)
	h.fillUpper(addr, ready, useL1, kind)
	return res
}

func (h *Hierarchy) fillUpper(addr, ready int64, useL1 bool, kind AccessKind) {
	if useL1 && kind != Store {
		h.l1.insert(addr, ready)
	}
}

// Contains reports whether addr's line is present (valid) at the given
// level (1-3), regardless of fill time. A level the hierarchy does not
// have contains nothing, so Contains reports false rather than panicking —
// the level number is caller data, not an internal invariant.
func (h *Hierarchy) Contains(levelN int, addr int64) bool {
	var l *level
	switch levelN {
	case 1:
		l = h.l1
	case 2:
		l = h.l2
	case 3:
		l = h.l3
	default:
		return false
	}
	tag := addr >> l.cfg.LineShift
	for _, ln := range l.set(tag) {
		if ln.gen == l.gen && ln.tag == tag {
			return true
		}
	}
	return false
}
