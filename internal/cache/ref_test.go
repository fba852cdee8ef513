package cache

// refHierarchy is the hierarchy as it was before its levels were filled
// lazily: each level is one flat []line of Sets*Ways lines, allocated and
// zeroed whole when the hierarchy is built. The differential tests hold
// Hierarchy to its Results, Stats and Contains answers.
type refHierarchy struct {
	cfg        Config
	l1, l2, l3 *refLevel
	Stats      Stats
}

type refLevel struct {
	cfg LevelConfig
	// lines holds the Sets*Ways lines, set s at [s*Ways, (s+1)*Ways).
	lines []line
	gen   uint64
	tick  int64
}

func newRefLevel(cfg LevelConfig) *refLevel {
	return &refLevel{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways), gen: 1}
}

// set returns the lines of the set tag maps to.
func (l *refLevel) set(tag int64) []line {
	s := int(tag&int64(l.cfg.Sets-1)) * l.cfg.Ways
	return l.lines[s : s+l.cfg.Ways]
}

// probe returns the line if present.
func (l *refLevel) probe(addr int64) *line {
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
func (l *refLevel) insert(addr, fill int64) {
	tag := addr >> l.cfg.LineShift
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

func newRef(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), l3: newRefLevel(cfg.L3)}
}

func (h *refHierarchy) Reset() {
	for _, l := range []*refLevel{h.l1, h.l2, h.l3} {
		l.gen++
	}
}

func (h *refHierarchy) Access(now, addr int64, fp bool, kind AccessKind) Result {
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

func (h *refHierarchy) fillUpper(addr, ready int64, useL1 bool, kind AccessKind) {
	if useL1 && kind != Store {
		h.l1.insert(addr, ready)
	}
}

func (h *refHierarchy) Contains(levelN int, addr int64) bool {
	var l *refLevel
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
