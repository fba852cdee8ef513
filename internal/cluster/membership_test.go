package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFileSourceResolve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers")
	content := "# fleet\n a=http://h1:1 , b=http://h2:2 # trailing comment\n\nhttp://h3:3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	peers, err := FileSource{Path: path}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{{"a", "http://h1:1"}, {"b", "http://h2:2"}, {"http://h3:3", "http://h3:3"}}
	if len(peers) != len(want) {
		t.Fatalf("got %d peers %v, want %d", len(peers), peers, len(want))
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Errorf("peer %d = %v, want %v", i, peers[i], want[i])
		}
	}
}

func TestFileSourceErrors(t *testing.T) {
	if _, err := (FileSource{Path: filepath.Join(t.TempDir(), "missing")}).Resolve(); err == nil {
		t.Error("missing file: want error")
	}
	path := filepath.Join(t.TempDir(), "peers")
	os.WriteFile(path, []byte("a=http://h1:1\na=http://h2:2\n"), 0o644)
	if _, err := (FileSource{Path: path}).Resolve(); err == nil {
		t.Error("duplicate id: want error")
	}
	os.WriteFile(path, []byte("# only comments\n"), 0o644)
	if _, err := (FileSource{Path: path}).Resolve(); err == nil {
		t.Error("empty peer list: want error")
	}
}

func TestDNSSourceResolve(t *testing.T) {
	src := DNSSource{
		Name: "_ltspd._tcp.example",
		Lookup: func(ctx context.Context, name string) ([]*net.SRV, error) {
			if name != "_ltspd._tcp.example" {
				t.Errorf("lookup name = %q", name)
			}
			return []*net.SRV{
				{Target: "node-b.example.", Port: 8002},
				{Target: "node-a.example.", Port: 8001},
				{Target: "node-a.example.", Port: 8001}, // duplicate record
			}, nil
		},
	}
	peers, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("got %d peers %v, want 2", len(peers), peers)
	}
	if peers[0].ID != "node-a.example:8001" || peers[0].Addr != "http://node-a.example:8001" {
		t.Errorf("peer 0 = %v", peers[0])
	}
	if peers[1].ID != "node-b.example:8002" {
		t.Errorf("peer 1 = %v", peers[1])
	}
}

func TestMembershipRefreshSwapsRing(t *testing.T) {
	var mu sync.Mutex
	peers := []Peer{{"a", "http://a"}, {"b", "http://b"}}
	src := sourceFunc(func() ([]Peer, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]Peer(nil), peers...), nil
	})
	var changes int
	m := NewMembership(MembershipConfig{
		Source:   src,
		Self:     Peer{ID: "a", Addr: "http://a"},
		OnChange: func(*Ring) { changes++ },
	})
	defer m.Close()
	if m.Ring().Len() != 2 {
		t.Fatalf("initial ring has %d peers, want 2", m.Ring().Len())
	}
	if changed, err := m.Refresh(); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	mu.Lock()
	peers = append(peers, Peer{"c", "http://c"})
	mu.Unlock()
	changed, err := m.Refresh()
	if err != nil || !changed {
		t.Fatalf("grow refresh: changed=%v err=%v", changed, err)
	}
	if m.Ring().Len() != 3 || m.Swaps() != 1 || changes != 1 {
		t.Fatalf("after grow: len=%d swaps=%d changes=%d", m.Ring().Len(), m.Swaps(), changes)
	}
}

func TestMembershipKeepsSelfAndOldRingOnError(t *testing.T) {
	fail := false
	var mu sync.Mutex
	src := sourceFunc(func() ([]Peer, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return nil, fmt.Errorf("discovery down")
		}
		return []Peer{{"b", "http://b"}}, nil // omits self
	})
	m := NewMembership(MembershipConfig{Source: src, Self: Peer{ID: "a", Addr: "http://a"}})
	defer m.Close()
	if m.Ring().Len() != 2 || !ringHas(m.Ring(), "a") {
		t.Fatalf("self not folded into membership: %v", m.Ring().Peers())
	}
	old := m.Ring()
	mu.Lock()
	fail = true
	mu.Unlock()
	if _, err := m.Refresh(); err == nil {
		t.Fatal("want resolve error")
	}
	if m.Ring() != old {
		t.Error("failed resolve must keep the previous ring")
	}
	if m.ResolveErrors() != 1 {
		t.Errorf("resolve errors = %d, want 1", m.ResolveErrors())
	}
}

// sourceFunc adapts a function to Source.
type sourceFunc func() ([]Peer, error)

func (f sourceFunc) Resolve() ([]Peer, error) { return f() }

// TestRingSwapAtomicity is the ring-swap property test: concurrent
// readers racing membership swaps must only ever observe complete
// membership versions — every Owners result is consistent with exactly
// one resolved peer set, never a blend of two.
func TestRingSwapAtomicity(t *testing.T) {
	versions := [][]Peer{
		{{"a", "ua"}, {"b", "ub"}},
		{{"a", "ua"}, {"b", "ub"}, {"c", "uc"}},
		{{"a", "ua"}, {"c", "uc"}},
		{{"a", "ua"}, {"b", "ub"}, {"c", "uc"}, {"d", "ud"}},
	}
	var mu sync.Mutex
	cur := 0
	src := sourceFunc(func() ([]Peer, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]Peer(nil), versions[cur]...), nil
	})
	m := NewMembership(MembershipConfig{Source: src, Self: Peer{ID: "a", Addr: "ua"}, VNodes: 16})
	defer m.Close()

	// Precompute the legal peer-set fingerprints.
	legal := make(map[string]bool)
	for _, v := range versions {
		legal[fingerprint(New(v, 16).Peers())] = true
	}

	stop := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ring := m.Ring() // one snapshot for the whole "operation"
				fp := fingerprint(ring.Peers())
				if !legal[fp] {
					select {
					case errs <- "illegal membership observed: " + fp:
					default:
					}
					return
				}
				key := fmt.Sprintf("key-%d-%d", g, i)
				owners := ring.Owners(key, 2)
				for _, o := range owners {
					if !ringHas(ring, o.ID) {
						select {
						case errs <- "owner outside ring snapshot: " + o.ID:
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		mu.Lock()
		cur = (cur + 1) % len(versions)
		mu.Unlock()
		if _, err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if m.Swaps() == 0 {
		t.Fatal("no swaps happened; the property was not exercised")
	}
}

func fingerprint(peers []Peer) string {
	s := ""
	for _, p := range peers {
		s += p.ID + ","
	}
	return s
}

func ringHas(r *Ring, id string) bool {
	for _, p := range r.Peers() {
		if p.ID == id {
			return true
		}
	}
	return false
}

// TestMembershipMinimalMovement: swapping one peer out moves only that
// peer's arcs (quick-checked over random keys).
func TestMembershipMinimalMovement(t *testing.T) {
	before := New([]Peer{{"a", "ua"}, {"b", "ub"}, {"c", "uc"}}, 64)
	after := New([]Peer{{"a", "ua"}, {"b", "ub"}, {"d", "ud"}}, 64)
	check := func(k string) bool {
		ob, _ := before.Owner(k)
		oa, _ := after.Owner(k)
		// Ownership may only change when c or d is involved.
		return ob.ID == oa.ID || ob.ID == "c" || oa.ID == "d"
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHealthEjectionAndProbation(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth(HealthConfig{
		FailThreshold:      3,
		BackoffBase:        time.Second,
		BackoffMax:         time.Minute,
		ProbationSuccesses: 2,
		Seed:               42,
		Now:                func() time.Time { return now },
	})
	if !h.Eligible("p") || h.State("p") != StateAlive {
		t.Fatal("unknown peer must start alive and eligible")
	}
	h.ReportFailure("p")
	h.ReportFailure("p")
	if !h.Eligible("p") {
		t.Fatal("below threshold must stay eligible")
	}
	h.ReportSuccess("p")
	h.ReportFailure("p")
	h.ReportFailure("p")
	if !h.Eligible("p") {
		t.Fatal("success must reset the consecutive-failure count")
	}
	h.ReportFailure("p")
	if h.State("p") != StateDead {
		t.Fatalf("state = %s, want dead after 3 consecutive failures", h.State("p"))
	}
	if h.Eligible("p") {
		t.Fatal("freshly dead peer must be ineligible")
	}
	alive, dead := h.Counts()
	if alive != 0 || dead != 1 {
		t.Fatalf("counts = %d/%d, want 0 alive 1 dead", alive, dead)
	}

	// Backoff expiry earns exactly one trial.
	now = now.Add(2 * time.Second) // past 1.5x max jitter of the base backoff
	if !h.Eligible("p") {
		t.Fatal("post-backoff dead peer must earn a trial")
	}
	if len(h.Due()) != 1 {
		t.Fatalf("due = %v, want [p]", h.Due())
	}
	// Trial fails: dead again, doubled backoff.
	h.ReportFailure("p")
	if h.Eligible("p") {
		t.Fatal("failed trial must re-eject immediately")
	}
	now = now.Add(time.Second) // 1s: within the doubled (>=1s jittered low bound) window
	snap := h.Snapshot()
	if len(snap) != 1 || snap[0].Ejections != 2 {
		t.Fatalf("snapshot = %+v, want 2 ejections", snap)
	}

	// Let the second backoff expire; a success starts probation, a second
	// re-admits fully.
	now = now.Add(4 * time.Second)
	if !h.Eligible("p") {
		t.Fatal("second backoff must expire by +4s (max 1.5x of 2s)")
	}
	h.ReportSuccess("p")
	if h.State("p") != StateProbation || !h.Eligible("p") {
		t.Fatalf("state = %s, want probation (eligible)", h.State("p"))
	}
	h.ReportSuccess("p")
	if h.State("p") != StateAlive {
		t.Fatalf("state = %s, want alive after probation successes", h.State("p"))
	}
}

func TestHealthProbationFailureDoublesBackoff(t *testing.T) {
	now := time.Unix(0, 0)
	h := NewHealth(HealthConfig{
		FailThreshold: 1, BackoffBase: time.Second, BackoffMax: time.Hour,
		ProbationSuccesses: 2, Seed: 7, Now: func() time.Time { return now },
	})
	h.ReportFailure("p") // ejection 1
	now = now.Add(2 * time.Second)
	h.ReportSuccess("p") // probation
	h.ReportFailure("p") // ejection 2: backoff 2s, jittered [1s, 3s)
	if h.Eligible("p") {
		t.Fatal("probation failure must eject immediately")
	}
	now = now.Add(3 * time.Second)
	if !h.Eligible("p") {
		t.Fatal("second backoff must be at most 3s")
	}
}

func TestHealthSetPeersPrunes(t *testing.T) {
	h := NewHealth(HealthConfig{FailThreshold: 1, Seed: 1})
	h.ReportFailure("gone")
	if h.State("gone") != StateDead {
		t.Fatal("setup: want dead")
	}
	h.SetPeers([]string{"kept"})
	if h.State("gone") != StateAlive {
		t.Error("departed peer must be forgotten (fresh on rejoin)")
	}
	alive, dead := h.Counts()
	if alive != 1 || dead != 0 {
		t.Errorf("counts = %d/%d, want 1/0", alive, dead)
	}
}

func TestHealthEligibleAllocs(t *testing.T) {
	h := NewHealth(HealthConfig{Seed: 1})
	h.SetPeers([]string{"a", "b", "c"})
	h.ReportFailure("b")
	m := NewMembership(MembershipConfig{
		Source: StaticSource{{ID: "a", Addr: "ua"}, {ID: "b", Addr: "ub"}},
		Self:   Peer{ID: "a", Addr: "ua"},
		Health: h,
	})
	defer m.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		ring := m.Ring()
		_ = ring.Len()
		if !h.Eligible("a") || !h.Eligible("b") {
			t.Fatal("unexpected ineligible")
		}
	})
	if allocs != 0 {
		t.Errorf("hot-path health check allocates %v per run, want 0", allocs)
	}
}

func TestMembershipPollerAndProber(t *testing.T) {
	var mu sync.Mutex
	peers := []Peer{{"a", "ua"}, {"b", "ub"}}
	src := sourceFunc(func() ([]Peer, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]Peer(nil), peers...), nil
	})
	now := time.Unix(0, 0)
	var nowMu sync.Mutex
	h := NewHealth(HealthConfig{FailThreshold: 1, BackoffBase: time.Millisecond,
		ProbationSuccesses: 1, Seed: 3,
		Now: func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }})
	m := NewMembership(MembershipConfig{
		Source: src, Self: Peer{ID: "a", Addr: "ua"}, Health: h,
		Interval: 5 * time.Millisecond,
	})
	m.Start()
	probed := make(chan string, 16)
	m.StartProber(5*time.Millisecond, time.Second, func(ctx context.Context, p Peer) error {
		probed <- p.ID
		return nil
	})
	defer m.Close()

	mu.Lock()
	peers = append(peers, Peer{"c", "uc"})
	mu.Unlock()
	deadline := time.After(2 * time.Second)
	for m.Ring().Len() != 3 {
		select {
		case <-deadline:
			t.Fatal("poller never picked up the membership change")
		case <-time.After(time.Millisecond):
		}
	}

	h.ReportFailure("b")
	nowMu.Lock()
	now = now.Add(time.Second) // past the jittered backoff: b is due
	nowMu.Unlock()
	select {
	case id := <-probed:
		if id != "b" {
			t.Fatalf("probed %q, want b", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("prober never probed the due peer")
	}
	// The probe success must re-admit b (ProbationSuccesses 1).
	deadline = time.After(2 * time.Second)
	for h.State("b") != StateAlive {
		select {
		case <-deadline:
			t.Fatalf("state = %s, want alive after probe success", h.State("b"))
		case <-time.After(time.Millisecond):
		}
	}
}
