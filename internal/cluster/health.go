package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Peer health states. A peer starts Alive; consecutive failures eject
// it to Dead; a dead peer earns a single trial once its jittered
// backoff expires, and a trial success moves it to Probation, where a
// few clean successes re-admit it fully (and one failure sends it
// straight back to Dead with a doubled backoff).
const (
	StateAlive     = "alive"
	StateDead      = "dead"
	StateProbation = "probation"
)

// HealthConfig parameterizes the per-peer health tracker.
type HealthConfig struct {
	// FailThreshold is the consecutive-failure count that ejects an
	// alive peer (default 3).
	FailThreshold int
	// BackoffBase is the first post-ejection retry delay (default
	// 500ms); each further ejection doubles it up to BackoffMax
	// (default 30s). The applied delay is jittered uniformly in
	// [0.5x, 1.5x) so a fleet that ejected a peer together does not
	// retry it in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ProbationSuccesses is how many consecutive successes a
	// probationary peer needs to be fully re-admitted (default 2).
	ProbationSuccesses int
	// Seed makes the backoff jitter deterministic (0 seeds from the
	// base delay so behavior is still reproducible by default).
	Seed int64
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 30 * time.Second
	}
	if c.ProbationSuccesses <= 0 {
		c.ProbationSuccesses = 2
	}
	if c.Seed == 0 {
		c.Seed = int64(c.BackoffBase)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Health tracks per-peer liveness from observed request outcomes. It is
// passive by design: the server reports successes and failures from the
// traffic it already sends (peer-fill legs, sync pulls),
// and an optional active prober (see Membership.StartProber) reports
// probe outcomes through the same two methods. Eligible is the read
// side, called on the request hot path — it takes a read lock, touches
// one map entry and allocates nothing.
type Health struct {
	cfg HealthConfig

	mu    sync.RWMutex
	peers map[string]*peerHealth
	rng   *rand.Rand // guarded by mu
}

type peerHealth struct {
	state     string
	fails     int // consecutive failures while alive
	successes int // consecutive successes while on probation
	ejections int // lifetime ejections; drives the backoff exponent
	retryAt   time.Time
}

// PeerHealth is one peer's externally visible health snapshot.
type PeerHealth struct {
	ID        string
	State     string
	Ejections int
	RetryAt   time.Time
}

// NewHealth creates a tracker. A nil *Health is valid everywhere and
// reports every peer eligible — single-node and health-disabled
// configurations need no branches at call sites.
func NewHealth(cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	return &Health{
		cfg:   cfg,
		peers: make(map[string]*peerHealth),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Eligible reports whether a peer should receive traffic right now:
// alive or probationary peers always, dead peers only once their
// jittered backoff has expired (the trial request whose outcome decides
// re-admission). Unknown peers are eligible — health state is earned,
// not preassigned.
func (h *Health) Eligible(id string) bool {
	if h == nil {
		return true
	}
	h.mu.RLock()
	p, ok := h.peers[id]
	eligible := !ok || p.state != StateDead || !h.cfg.Now().Before(p.retryAt)
	h.mu.RUnlock()
	return eligible
}

// State returns a peer's current state (unknown peers are alive).
func (h *Health) State(id string) string {
	if h == nil {
		return StateAlive
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if p, ok := h.peers[id]; ok {
		return p.state
	}
	return StateAlive
}

// ReportSuccess records a successful interaction with a peer. A clean
// artifact miss counts: the peer answered, so it is healthy.
func (h *Health) ReportSuccess(id string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(id)
	switch p.state {
	case StateDead:
		// The post-backoff trial succeeded: on probation, one success in.
		p.state = StateProbation
		p.successes = 1
		p.fails = 0
	case StateProbation:
		p.successes++
	default:
		p.fails = 0
		return
	}
	if p.successes >= h.cfg.ProbationSuccesses {
		p.state = StateAlive
		p.fails, p.successes = 0, 0
	}
}

// ReportFailure records a failed interaction with a peer. FailThreshold
// consecutive failures eject an alive peer; a probationary (or trialed
// dead) peer goes straight back to Dead with a doubled, jittered
// backoff.
func (h *Health) ReportFailure(id string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(id)
	switch p.state {
	case StateAlive:
		p.fails++
		if p.fails >= h.cfg.FailThreshold {
			h.eject(p)
		}
	default: // probation, or a dead peer's trial
		h.eject(p)
	}
}

// eject moves a peer to Dead and schedules its next trial. Caller holds
// the write lock.
func (h *Health) eject(p *peerHealth) {
	p.state = StateDead
	p.fails, p.successes = 0, 0
	p.ejections++
	backoff := h.cfg.BackoffBase << uint(min(p.ejections-1, 16))
	if backoff > h.cfg.BackoffMax || backoff <= 0 {
		backoff = h.cfg.BackoffMax
	}
	// Jitter in [0.5x, 1.5x): deterministic under Seed.
	jittered := time.Duration((0.5 + h.rng.Float64()) * float64(backoff))
	p.retryAt = h.cfg.Now().Add(jittered)
}

// peer returns (creating if needed) a peer's record. Caller holds the
// write lock.
func (h *Health) peer(id string) *peerHealth {
	p, ok := h.peers[id]
	if !ok {
		p = &peerHealth{state: StateAlive}
		h.peers[id] = p
	}
	return p
}

// SetPeers reconciles the tracked set with the current membership:
// departed peers are forgotten (a removed peer that later rejoins
// starts fresh), new peers start alive.
func (h *Health) SetPeers(ids []string) {
	if h == nil {
		return
	}
	keep := make(map[string]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := range h.peers {
		if !keep[id] {
			delete(h.peers, id)
		}
	}
	for _, id := range ids {
		if _, ok := h.peers[id]; !ok {
			h.peers[id] = &peerHealth{state: StateAlive}
		}
	}
}

// Due returns the dead peers whose backoff has expired — the active
// prober's work list.
func (h *Health) Due() []string {
	if h == nil {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	now := h.cfg.Now()
	var due []string
	for id, p := range h.peers {
		if p.state == StateDead && !now.Before(p.retryAt) {
			due = append(due, id)
		}
	}
	return due
}

// Snapshot returns every tracked peer's health (metrics, debugging).
func (h *Health) Snapshot() []PeerHealth {
	if h == nil {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]PeerHealth, 0, len(h.peers))
	for id, p := range h.peers {
		out = append(out, PeerHealth{ID: id, State: p.state, Ejections: p.ejections, RetryAt: p.retryAt})
	}
	return out
}

// Counts returns how many tracked peers are in each state (alive
// includes probation: both receive traffic).
func (h *Health) Counts() (alive, dead int) {
	if h == nil {
		return 0, 0
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, p := range h.peers {
		if p.state == StateDead {
			dead++
		} else {
			alive++
		}
	}
	return alive, dead
}
