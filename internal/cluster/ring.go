// Package cluster implements consistent-hash ownership of loop hashes
// across a set of ltspd peers.
//
// Each peer is mapped to many points ("virtual nodes") on a 64-bit hash
// ring; a loop hash is owned by the first peer clockwise from the
// hash's own point, and its replica set is the next n distinct peers in
// ring order. Virtual nodes give each peer a near-uniform share of the
// key space, and consistent hashing keeps ownership stable under
// membership change: when a peer joins or leaves, only the keys on the
// arcs it gains or loses move — on average 1/(peers) of the key space —
// instead of nearly everything, as with modulo placement.
//
// Ownership is a pure function of (peer IDs, VNodes, key): every node
// and every fleet-aware client that agrees on the peer list computes
// the same owner with no coordination. A Ring is built from a plain peer
// list; where that list comes from at runtime (the -peers flag, a peers
// file, DNS) is a Source, which Membership polls to rebuild the ring.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Peer is one ltspd process: a stable identity on the ring and the base
// URL its peers reach it at. ID and Addr are usually the same string (a
// URL like "http://10.0.0.3:8347"); they are distinct fields so a
// deployment can keep ring identity stable across address changes.
type Peer struct {
	ID   string
	Addr string
}

// ParsePeers parses a comma-separated peer list, each element either
// "addr" (ID = Addr) or "id=addr". Empty elements are ignored.
func ParsePeers(list string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p := Peer{ID: part, Addr: part}
		if id, addr, ok := strings.Cut(part, "="); ok {
			if id == "" || addr == "" {
				return nil, fmt.Errorf("cluster: malformed peer %q (want id=addr)", part)
			}
			p = Peer{ID: id, Addr: addr}
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		peers = append(peers, p)
	}
	return peers, nil
}

// DefaultVNodes is the virtual-node count per peer. 128 points per peer
// keeps the load imbalance of the max-loaded peer within a few percent
// for small clusters while ring construction stays microseconds.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over a peer set. Build one
// with New and rebuild on membership change; lookups are lock-free.
type Ring struct {
	points []ringPoint // sorted by hash
	peers  []Peer      // sorted by ID
	vnodes int
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// New builds a ring over the peers with vnodes virtual nodes per peer
// (<= 0 selects DefaultVNodes). Only the set of peers matters, not their
// order; the ring keeps its own sorted copy. An empty peer set yields an
// empty ring whose lookups return nothing.
func New(peers []Peer, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	peers = append([]Peer(nil), peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	ring := &Ring{peers: peers, vnodes: vnodes}
	ring.points = make([]ringPoint, 0, len(peers)*vnodes)
	for pi, p := range peers {
		for v := 0; v < vnodes; v++ {
			h := hashString(p.ID + "#" + strconv.Itoa(v))
			ring.points = append(ring.points, ringPoint{hash: h, peer: pi})
		}
	}
	sort.Slice(ring.points, func(i, j int) bool {
		a, b := ring.points[i], ring.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Equal hash points (vanishingly rare) tie-break by peer index so
		// the ring is deterministic regardless of sort stability.
		return a.peer < b.peer
	})
	return ring
}

// hashString maps a string to its ring coordinate: the first 8 bytes of
// its sha256. sha256 rather than a fast non-cryptographic hash because
// ring coordinates must be stable across processes, architectures and
// releases — they are part of the wire contract between fleet-aware
// clients and servers.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len returns the number of peers on the ring.
func (r *Ring) Len() int { return len(r.peers) }

// Peers returns the ring's peer set, sorted by ID.
func (r *Ring) Peers() []Peer { return r.peers }

// Owner returns the peer that owns key (the primary replica). ok is
// false on an empty ring.
func (r *Ring) Owner(key string) (Peer, bool) {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return Peer{}, false
	}
	return owners[0], true
}

// Owners returns the first n distinct peers clockwise from key's ring
// coordinate: the key's replica set, primary first. Fewer than n peers
// on the ring returns them all, in ring order from the key.
func (r *Ring) Owners(key string, n int) []Peer {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := hashString(key)
	// First point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := make([]Peer, 0, n)
	seen := make(map[int]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		pt := r.points[(i+j)%len(r.points)]
		if !seen[pt.peer] {
			seen[pt.peer] = true
			out = append(out, r.peers[pt.peer])
		}
	}
	return out
}

// IsOwner reports whether the peer with the given ID is in key's
// replica set of size n.
func (r *Ring) IsOwner(id, key string, n int) bool {
	for _, p := range r.Owners(key, n) {
		if p.ID == id {
			return true
		}
	}
	return false
}
