package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRegistryCapacity is the recent-requests ring size when the
// caller does not choose one.
const DefaultRegistryCapacity = 256

// DefaultSlowThreshold is the duration beyond which a finished request
// counts as a slow outlier and is retained past the recent ring.
const DefaultSlowThreshold = 100 * time.Millisecond

// Registry retains finished request traces for the z-pages endpoints: a
// bounded ring of recent requests, plus a second bounded ring of
// always-retained outliers (errors and slow requests) so the
// interesting traces survive long after ordinary traffic has cycled the
// recent ring. Memory is bounded by capacity + capacity/4 traces of at
// most maxSpans spans each.
type Registry struct {
	mu       sync.Mutex
	recent   []*Trace
	nextR    int
	outliers []*Trace
	nextO    int
	slow     time.Duration
	outlier  map[*Trace]string // retained outlier -> "slow" | "error"
}

// NewRegistry creates a registry holding capacity recent traces
// (<= 0 selects DefaultRegistryCapacity) plus capacity/4 outliers.
// slowThreshold <= 0 selects DefaultSlowThreshold.
func NewRegistry(capacity int, slowThreshold time.Duration) *Registry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowThreshold
	}
	ocap := capacity / 4
	if ocap < 8 {
		ocap = 8
	}
	return &Registry{
		recent:   make([]*Trace, capacity),
		outliers: make([]*Trace, ocap),
		slow:     slowThreshold,
		outlier:  make(map[*Trace]string),
	}
}

// Record retains a finished trace. Errors (status >= 500) and slow
// requests (duration >= the slow threshold) are additionally pinned in
// the outlier ring.
func (r *Registry) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	sum := t.SummaryOf()
	kind := ""
	switch {
	case sum.Status >= 500:
		kind = "error"
	case sum.Dur >= r.slow:
		kind = "slow"
	}
	r.mu.Lock()
	r.recent[r.nextR%len(r.recent)] = t
	r.nextR++
	if kind != "" {
		if old := r.outliers[r.nextO%len(r.outliers)]; old != nil {
			delete(r.outlier, old)
		}
		r.outliers[r.nextO%len(r.outliers)] = t
		r.nextO++
		r.outlier[t] = kind
	}
	r.mu.Unlock()
}

// Get returns the retained trace with the given ID and its outlier kind
// ("" for a plain recent trace), or nil when it has cycled out.
func (r *Registry) Get(id string) (*Trace, string) {
	if r == nil {
		return nil, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The outlier ring is authoritative for pinned traces; the recent
	// ring covers everything else. Linear scans are fine — both rings are
	// small and this is a debug surface.
	for _, t := range r.outliers {
		if t != nil && t.ID() == id {
			return t, r.outlier[t]
		}
	}
	for _, t := range r.recent {
		if t != nil && t.ID() == id {
			return t, ""
		}
	}
	return nil, ""
}

// List returns summaries of every retained trace — outliers first, then
// recent requests newest-first — deduplicated (an outlier still in the
// recent ring appears once, flagged).
func (r *Registry) List() []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	seen := make(map[*Trace]bool, len(r.recent)+len(r.outliers))
	var traces []*Trace
	var kinds []string
	add := func(t *Trace, kind string) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		traces = append(traces, t)
		kinds = append(kinds, kind)
	}
	for i := 0; i < len(r.outliers); i++ {
		// Newest outlier first.
		t := r.outliers[(r.nextO-1-i+2*len(r.outliers))%len(r.outliers)]
		add(t, r.outlier[t])
	}
	for i := 0; i < len(r.recent); i++ {
		t := r.recent[(r.nextR-1-i+2*len(r.recent))%len(r.recent)]
		add(t, r.outlier[t])
	}
	r.mu.Unlock()

	out := make([]Summary, len(traces))
	for i, t := range traces {
		s := t.SummaryOf()
		s.Outlier = kinds[i]
		out[i] = s
	}
	return out
}

// Sampler makes a deterministic 1-in-N decision: the server's tracing of
// requests that did not ask to be traced (no trace header), and its
// verification of executed compilations. Deterministic stride sampling
// keeps tests and replays reproducible where random sampling would not
// be. Safe for concurrent use.
type Sampler struct {
	stride uint64
	tick   atomic.Uint64
}

// NewSampler returns a sampler firing on every ~1/rate-th request.
// rate <= 0 never fires; rate >= 1 always fires.
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate <= 0:
		s.stride = 0
	case rate >= 1:
		s.stride = 1
	default:
		s.stride = uint64(1 / rate)
	}
	return s
}

// Sample reports whether this event (request, compilation) is sampled.
func (s *Sampler) Sample() bool {
	if s == nil || s.stride == 0 {
		return false
	}
	if s.stride == 1 {
		return true
	}
	return s.tick.Add(1)%s.stride == 1
}
