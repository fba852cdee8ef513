package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MembershipConfig parameterizes a Membership.
type MembershipConfig struct {
	// Source supplies the peer list (required).
	Source Source
	// Self is the local peer; it is always part of the membership even
	// when the Source omits it (a node removed from its own discovery
	// record keeps owning its arcs until it is shut down, rather than
	// treating every key as peer-owned). When the Source does list
	// Self's ID, the resolved entry wins.
	Self Peer
	// VNodes is the virtual-node count per peer (<= 0 selects
	// DefaultVNodes). All nodes must agree on it.
	VNodes int
	// Interval is the Source poll period for Start (default 3s).
	Interval time.Duration
	// Health, when non-nil, is reconciled with the peer set on every
	// swap and driven by the prober.
	Health *Health
	// OnChange, when non-nil, runs after each ring swap with the new
	// ring (the server pokes its anti-entropy loop from here). It is
	// called from whatever goroutine performed the Refresh, never
	// concurrently with itself.
	OnChange func(*Ring)
	// Logger receives membership events; nil discards them.
	Logger *slog.Logger
}

// Membership maintains the current consistent-hash ring over a dynamic
// peer Source. Ring updates are atomic pointer swaps: readers load the
// current immutable Ring with one atomic read and keep using that
// snapshot for the whole operation (a hedged peer fill never sees a
// half-updated ring, and an in-flight fill against a since-removed peer
// simply completes against its snapshot).
type Membership struct {
	cfg  MembershipConfig
	ring atomic.Pointer[Ring]

	swaps         atomic.Uint64 // completed ring swaps (not counting the initial build)
	resolveErrors atomic.Uint64

	changeMu sync.Mutex // serializes Refresh (and so OnChange)

	stopOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup
}

// NewMembership builds the initial ring (resolving once, falling back
// to just Self if the first resolve fails — the poller will heal it)
// and returns the membership. Call Start to begin polling, StartProber
// to begin active health probes, and Close to stop both.
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.Interval <= 0 {
		cfg.Interval = 3 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	m := &Membership{cfg: cfg, stop: make(chan struct{})}
	peers, err := m.resolve()
	if err != nil {
		m.cfg.Logger.Warn("cluster: initial membership resolve failed; starting with self only", "err", err)
		peers = []Peer{cfg.Self}
	}
	ring := New(peers, cfg.VNodes)
	m.ring.Store(ring)
	m.reconcileHealth(ring)
	return m
}

// Ring returns the current ring snapshot: one atomic load, safe to use
// for the whole of an operation.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Peers returns the current ring's peers.
func (m *Membership) Peers() []Peer { return m.Ring().Peers() }

// Swaps returns how many ring swaps have been applied since the initial
// build.
func (m *Membership) Swaps() uint64 { return m.swaps.Load() }

// ResolveErrors returns how many Source refreshes have failed (each
// leaves the previous membership in effect).
func (m *Membership) ResolveErrors() uint64 { return m.resolveErrors.Load() }

// resolve asks the Source and folds Self in.
func (m *Membership) resolve() ([]Peer, error) {
	peers, err := m.cfg.Source.Resolve()
	if err != nil {
		return nil, err
	}
	out := append([]Peer(nil), peers...)
	hasSelf := false
	for _, p := range out {
		if p.ID == m.cfg.Self.ID {
			hasSelf = true
			break
		}
	}
	if !hasSelf && m.cfg.Self.ID != "" {
		out = append(out, m.cfg.Self)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Refresh re-resolves membership and, when the peer set changed,
// atomically swaps in a freshly built ring. It reports whether a swap
// happened. A resolve error keeps the current ring and returns the
// error.
func (m *Membership) Refresh() (bool, error) {
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	peers, err := m.resolve()
	if err != nil {
		m.resolveErrors.Add(1)
		return false, err
	}
	if samePeers(m.Ring().Peers(), peers) {
		return false, nil
	}
	ring := New(peers, m.cfg.VNodes)
	m.ring.Store(ring)
	m.swaps.Add(1)
	m.reconcileHealth(ring)
	m.cfg.Logger.Info("cluster: membership changed", "peers", len(peers), "swaps", m.swaps.Load())
	if m.cfg.OnChange != nil {
		m.cfg.OnChange(ring)
	}
	return true, nil
}

func (m *Membership) reconcileHealth(ring *Ring) {
	if m.cfg.Health == nil {
		return
	}
	peers := ring.Peers()
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		if p.ID != m.cfg.Self.ID {
			ids = append(ids, p.ID)
		}
	}
	m.cfg.Health.SetPeers(ids)
}

// samePeers reports whether two ID-sorted peer slices are equal as
// (ID, Addr) sets.
func samePeers(a, b []Peer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Start begins polling the Source every Interval, swapping the ring on
// change. It is a no-op for a second call.
func (m *Membership) Start() {
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := m.Refresh(); err != nil {
					m.cfg.Logger.Warn("cluster: membership refresh failed", "err", err)
				}
			case <-m.stop:
				return
			}
		}
	}()
}

// ProbeFunc checks one peer's liveness; nil errors are successes.
type ProbeFunc func(ctx context.Context, p Peer) error

// HTTPProbe returns a ProbeFunc that GETs <addr>/healthz with the given
// client — the default active probe.
func HTTPProbe(client *http.Client) ProbeFunc {
	if client == nil {
		client = &http.Client{}
	}
	return func(ctx context.Context, p Peer) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.Addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe %s: status %d", p.ID, resp.StatusCode)
		}
		return nil
	}
}

// StartProber begins probing dead peers whose backoff has expired every
// interval, reporting outcomes into Health. Probes spend the backoff
// trial on a cheap /healthz round trip instead of a client request, so
// a recovered peer is back on probation before any request has to
// gamble on it.
func (m *Membership) StartProber(interval, timeout time.Duration, probe ProbeFunc) {
	if m.cfg.Health == nil || interval <= 0 {
		return
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if probe == nil {
		probe = HTTPProbe(nil)
	}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.probeDue(timeout, probe)
			case <-m.stop:
				return
			}
		}
	}()
}

// probeDue probes every due dead peer once, synchronously.
func (m *Membership) probeDue(timeout time.Duration, probe ProbeFunc) {
	due := m.cfg.Health.Due()
	if len(due) == 0 {
		return
	}
	ring := m.Ring()
	byID := make(map[string]Peer, ring.Len())
	for _, p := range ring.Peers() {
		byID[p.ID] = p
	}
	for _, id := range due {
		p, ok := byID[id]
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := probe(ctx, p)
		cancel()
		if err != nil {
			m.cfg.Health.ReportFailure(id)
			m.cfg.Logger.Debug("cluster: probe failed", "peer", id, "err", err)
		} else {
			m.cfg.Health.ReportSuccess(id)
			m.cfg.Logger.Info("cluster: dead peer answered probe", "peer", id, "state", m.cfg.Health.State(id))
		}
	}
}

// Close stops the poller and prober and waits for them to exit. Safe to
// call more than once and without Start.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.done.Wait()
}

// discardHandler is a no-op slog.Handler (slog.DiscardHandler arrived
// after Go 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
