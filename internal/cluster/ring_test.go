package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func peersN(n int) []Peer {
	out := make([]Peer, n)
	for i := range out {
		out[i] = Peer{ID: fmt.Sprintf("http://node-%d:8347", i), Addr: fmt.Sprintf("http://node-%d:8347", i)}
	}
	return out
}

func keysN(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", rng.Uint64())
	}
	return out
}

// TestOwnershipDeterministic: two independently built rings over the
// same membership (in different list orders) agree on every owner and
// every replica set — ownership is a pure function of the peer set.
func TestOwnershipDeterministic(t *testing.T) {
	peers := peersN(5)
	shuffled := append([]Peer(nil), peers...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := New(peers, 0)
	b := New(shuffled, 0)
	for _, key := range keysN(500, 1) {
		oa := a.Owners(key, 3)
		ob := b.Owners(key, 3)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("rings over the same membership disagree on %s: %v vs %v", key[:8], oa, ob)
		}
	}
}

// TestReplicaSets: table-driven checks of replica-set selection.
func TestReplicaSets(t *testing.T) {
	cases := []struct {
		name     string
		peers    int
		n        int
		wantLen  int
		distinct bool
	}{
		{"single peer", 1, 1, 1, true},
		{"replication beyond cluster", 2, 5, 2, true},
		{"three of five", 5, 3, 3, true},
		{"zero replication", 5, 0, 0, true},
		{"empty ring", 0, 2, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New(peersN(tc.peers), 0)
			for _, key := range keysN(100, 2) {
				owners := r.Owners(key, tc.n)
				if len(owners) != tc.wantLen {
					t.Fatalf("Owners(%s, %d) returned %d peers, want %d", key[:8], tc.n, len(owners), tc.wantLen)
				}
				seen := make(map[string]bool)
				for _, p := range owners {
					if seen[p.ID] {
						t.Fatalf("replica set for %s repeats peer %s", key[:8], p.ID)
					}
					seen[p.ID] = true
				}
			}
		})
	}
}

// TestOwnersPrefixStable: the n-replica set is a prefix of the
// (n+1)-replica set — growing replication never reshuffles existing
// replicas, it only appends.
func TestOwnersPrefixStable(t *testing.T) {
	r := New(peersN(6), 0)
	for _, key := range keysN(200, 3) {
		prev := []Peer{}
		for n := 1; n <= 4; n++ {
			cur := r.Owners(key, n)
			if !reflect.DeepEqual(cur[:len(prev)], prev) {
				t.Fatalf("Owners(%s, %d) = %v is not an extension of %v", key[:8], n, cur, prev)
			}
			prev = cur
		}
	}
}

// TestMinimalMovementOnJoin: adding one peer to an n-peer ring moves
// roughly 1/(n+1) of the keys and NEVER moves a key between two peers
// that are in both memberships — every moved key moves TO the joiner.
func TestMinimalMovementOnJoin(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		t.Run(fmt.Sprintf("%d_peers", n), func(t *testing.T) {
			old := New(peersN(n), 0)
			grown := New(peersN(n+1), 0) // peersN(n+1) = peersN(n) + one joiner
			joiner := fmt.Sprintf("http://node-%d:8347", n)
			keys := keysN(4000, 4)
			moved := 0
			for _, key := range keys {
				a, _ := old.Owner(key)
				b, _ := grown.Owner(key)
				if a.ID == b.ID {
					continue
				}
				moved++
				if b.ID != joiner {
					t.Fatalf("key %s moved %s -> %s, neither of which is the joiner", key[:8], a.ID, b.ID)
				}
			}
			frac := float64(moved) / float64(len(keys))
			ideal := 1 / float64(n+1)
			// Virtual-node placement is statistical; allow 2x the ideal
			// share before calling the movement non-minimal.
			if frac > 2*ideal {
				t.Fatalf("join moved %.1f%% of keys, ideal %.1f%% (bound %.1f%%)",
					frac*100, ideal*100, 2*ideal*100)
			}
			if moved == 0 {
				t.Fatal("join moved no keys at all — joiner owns nothing")
			}
		})
	}
}

// TestMinimalMovementOnLeave: removing a peer reassigns only the keys it
// owned; keys owned by surviving peers do not move.
func TestMinimalMovementOnLeave(t *testing.T) {
	peers := peersN(5)
	full := New(peers, 0)
	leaver := peers[2].ID
	shrunk := New(append(append([]Peer{}, peers[:2]...), peers[3:]...), 0)
	for _, key := range keysN(4000, 5) {
		a, _ := full.Owner(key)
		b, _ := shrunk.Owner(key)
		if a.ID == leaver {
			if b.ID == leaver {
				t.Fatalf("key %s still owned by departed peer", key[:8])
			}
			continue
		}
		if a.ID != b.ID {
			t.Fatalf("key %s owned by surviving peer %s moved to %s on an unrelated leave", key[:8], a.ID, b.ID)
		}
	}
}

// TestPropertyRandomMemberships: seeded property test — random peer
// sets and random single join/leave steps uphold the core invariants:
// deterministic ownership, distinct full replica sets, minimal movement
// direction (joins only pull keys to the joiner; leaves only push keys
// off the leaver), and rough balance of the primary assignment.
func TestPropertyRandomMemberships(t *testing.T) {
	rng := rand.New(rand.NewSource(20080608))
	for round := 0; round < 20; round++ {
		n := 2 + rng.Intn(8)
		peers := make([]Peer, n)
		for i := range peers {
			id := fmt.Sprintf("http://p%d-%d:%d", round, i, 8000+rng.Intn(1000))
			peers[i] = Peer{ID: id, Addr: id}
		}
		ring := New(peers, 0)
		keys := keysN(2000, int64(round))

		// Balance: with 128 vnodes the max primary share should be well
		// under 3x the fair share for these sizes.
		counts := make(map[string]int)
		for _, key := range keys {
			o, ok := ring.Owner(key)
			if !ok {
				t.Fatal("non-empty ring returned no owner")
			}
			counts[o.ID]++
		}
		fair := float64(len(keys)) / float64(n)
		for id, c := range counts {
			if float64(c) > 3*fair {
				t.Fatalf("round %d: peer %s owns %d of %d keys (fair %.0f)", round, id, c, len(keys), fair)
			}
		}

		if rng.Intn(2) == 0 {
			// Join.
			jid := fmt.Sprintf("http://joiner-%d:9000", round)
			grown := New(append(append([]Peer{}, peers...), Peer{ID: jid, Addr: jid}), 0)
			for _, key := range keys {
				a, _ := ring.Owner(key)
				b, _ := grown.Owner(key)
				if a.ID != b.ID && b.ID != jid {
					t.Fatalf("round %d: join moved key between survivors (%s -> %s)", round, a.ID, b.ID)
				}
			}
		} else {
			// Leave.
			li := rng.Intn(n)
			rest := append(append([]Peer{}, peers[:li]...), peers[li+1:]...)
			shrunk := New(rest, 0)
			for _, key := range keys {
				a, _ := ring.Owner(key)
				b, _ := shrunk.Owner(key)
				if a.ID != peers[li].ID && a.ID != b.ID {
					t.Fatalf("round %d: leave moved key owned by a survivor (%s -> %s)", round, a.ID, b.ID)
				}
			}
		}
	}
}

func TestParsePeers(t *testing.T) {
	cases := []struct {
		in      string
		want    []Peer
		wantErr bool
	}{
		{"", nil, false},
		{"http://a:1", []Peer{{ID: "http://a:1", Addr: "http://a:1"}}, false},
		{"http://a:1, http://b:2", []Peer{
			{ID: "http://a:1", Addr: "http://a:1"},
			{ID: "http://b:2", Addr: "http://b:2"},
		}, false},
		{"n1=http://a:1,n2=http://b:2", []Peer{
			{ID: "n1", Addr: "http://a:1"},
			{ID: "n2", Addr: "http://b:2"},
		}, false},
		{"n1=,", nil, true},
		{"http://a:1,http://a:1", nil, true}, // duplicate ID
	}
	for _, tc := range cases {
		got, err := ParsePeers(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePeers(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePeers(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePeers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestIsOwner(t *testing.T) {
	r := New(peersN(4), 0)
	key := keysN(1, 9)[0]
	owners := r.Owners(key, 2)
	for _, p := range owners {
		if !r.IsOwner(p.ID, key, 2) {
			t.Fatalf("IsOwner false for replica %s", p.ID)
		}
	}
	if r.IsOwner("http://nobody:1", key, 2) {
		t.Fatal("IsOwner true for a peer not on the ring")
	}
	inSet := make(map[string]bool)
	for _, p := range owners {
		inSet[p.ID] = true
	}
	for _, p := range r.Peers() {
		if !inSet[p.ID] && r.IsOwner(p.ID, key, 2) {
			t.Fatalf("IsOwner true for non-replica %s", p.ID)
		}
	}
}

func BenchmarkOwners(b *testing.B) {
	r := New(peersN(10), 0)
	keys := keysN(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owners(keys[i%len(keys)], 2)
	}
}
