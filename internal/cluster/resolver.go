package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Source is a refreshable membership source: where the peer list comes
// from when it can change at runtime. Resolve returns the current peer
// set or an error, in which case the previously resolved set stays in
// effect (a flapping DNS server or a half-written peers file must never
// empty the ring). Membership polls a Source and swaps in a ring built
// from each new peer set.
type Source interface {
	Resolve() ([]Peer, error)
}

// StaticSource is a fixed-membership Source, the one the -peers flag
// builds. It never fails and never changes.
type StaticSource []Peer

// Resolve implements Source.
func (s StaticSource) Resolve() ([]Peer, error) { return s, nil }

// FileSource resolves membership from a peers file, re-read on every
// Resolve — the file-watch backend behind the -peers-file flag. The
// format is one peer per line, either "addr" or "id=addr" (the same
// element syntax as ParsePeers); blank lines and #-comments are
// ignored, and commas may separate several peers on one line so a
// -peers value can be pasted in verbatim.
//
// Operators edit the file in place (or atomically rename over it); the
// next poll picks the change up. A read or parse error leaves the
// current membership in effect.
type FileSource struct {
	Path string
}

// Resolve implements Source.
func (f FileSource) Resolve() ([]Peer, error) {
	data, err := os.ReadFile(f.Path)
	if err != nil {
		return nil, fmt.Errorf("cluster: peers file: %w", err)
	}
	var elems []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		elems = append(elems, line)
	}
	peers, err := ParsePeers(strings.Join(elems, ","))
	if err != nil {
		return nil, fmt.Errorf("cluster: peers file %s: %w", f.Path, err)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: peers file %s lists no peers", f.Path)
	}
	return peers, nil
}

// DNSSource resolves membership from DNS SRV records — the -peers-dns
// backend. Each SRV target:port becomes one peer with ID "host:port"
// and Addr "<scheme>://host:port", so a headless-service record set
// maps straight onto ring identities that stay stable as long as the
// pod names do.
type DNSSource struct {
	// Name is the full SRV name to look up, e.g.
	// "_ltspd._tcp.ltspd.cluster.local".
	Name string
	// Scheme prefixes peer addresses (default "http").
	Scheme string
	// Timeout bounds one lookup (default 5s).
	Timeout time.Duration
	// Lookup overrides the DNS client (tests inject fakes). Nil uses
	// net.DefaultResolver with Name passed verbatim.
	Lookup func(ctx context.Context, name string) ([]*net.SRV, error)
}

// Resolve implements Source.
func (d DNSSource) Resolve() ([]Peer, error) {
	to := d.Timeout
	if to <= 0 {
		to = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), to)
	defer cancel()
	lookup := d.Lookup
	if lookup == nil {
		lookup = func(ctx context.Context, name string) ([]*net.SRV, error) {
			_, srvs, err := net.DefaultResolver.LookupSRV(ctx, "", "", name)
			return srvs, err
		}
	}
	srvs, err := lookup(ctx, d.Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: SRV %s: %w", d.Name, err)
	}
	if len(srvs) == 0 {
		return nil, fmt.Errorf("cluster: SRV %s: no records", d.Name)
	}
	scheme := d.Scheme
	if scheme == "" {
		scheme = "http"
	}
	peers := make([]Peer, 0, len(srvs))
	seen := make(map[string]bool, len(srvs))
	for _, srv := range srvs {
		host := strings.TrimSuffix(srv.Target, ".")
		id := net.JoinHostPort(host, strconv.Itoa(int(srv.Port)))
		if seen[id] {
			continue
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, Addr: scheme + "://" + id})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}
