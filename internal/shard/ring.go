// Package shard places sessions onto clear-serve replicas with a
// consistent-hash ring. Each replica (a "node", identified by its base
// URL) owns a contiguous set of hash-space arcs via virtual nodes; a
// session ID hashes to a point on the ring and is owned by the first node
// clockwise from it. The construction gives the two properties the
// serving layer's scale-out leans on:
//
//   - Stability: removing a node only re-homes the sessions that node
//     owned (≈ K/N of K sessions across N nodes), and adding a node only
//     steals sessions for itself — no unrelated session ever moves. The
//     rebalance property test in ring_test.go asserts both exactly.
//   - Determinism: every replica builds the ring from the same -peers
//     list and computes identical ownership with no coordination, so the
//     router (internal/serve/router.go) can forward or serve purely from
//     local state.
//
// Rings are immutable: With/Without derive new rings, so a router can
// compute failover ownership (ring minus a dead peer) without locking.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 128 keeps
// the per-node ownership share within a few percent of 1/N for the
// replica counts this system targets (single digits to low tens).
const DefaultVNodes = 128

// point is one virtual node: a position on the 64-bit hash circle and
// the physical node that owns the arc ending there.
type point struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring over named nodes.
type Ring struct {
	vnodes int
	nodes  []string // sorted, unique
	points []point  // sorted by hash
}

// New builds a ring over the given nodes with vnodes virtual nodes each
// (DefaultVNodes when vnodes <= 0). Duplicate nodes are collapsed; an
// empty node list yields a ring whose Owner returns "".
func New(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{h: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
	return r
}

// hash64 is FNV-1a followed by a splitmix64 finalizer. Ownership must
// agree across replicas and process restarts, so the hash cannot be
// seeded per-process (which rules out maphash); but raw FNV-1a clusters
// sequential keys like "s000041"/"s000042" into nearby ring positions —
// with arc-sized gaps of ~2^55 that starves whole nodes — so the avalanche
// finalizer is load-bearing, not decoration.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// VNodes returns the virtual-node count the ring was built with, so a
// derived structure (Membership) can rebuild compatible rings.
func (r *Ring) VNodes() int { return r.vnodes }

// Nodes returns the physical nodes in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Has reports whether node is a ring member.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Owner returns the node owning key: the first virtual node clockwise
// from the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the lowest
	}
	return r.points[i].node
}

// OwnerExcluding returns the owner of key on the ring with the down nodes
// removed — the deterministic failover owner every replica agrees on when
// a peer is unreachable. With every node down it returns "".
func (r *Ring) OwnerExcluding(key string, down map[string]bool) string {
	if len(down) == 0 {
		return r.Owner(key)
	}
	live := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if !down[n] {
			live = append(live, n)
		}
	}
	if len(live) == len(r.nodes) {
		return r.Owner(key)
	}
	return New(live, r.vnodes).Owner(key)
}

// Without derives the ring with node removed.
func (r *Ring) Without(node string) *Ring {
	live := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			live = append(live, n)
		}
	}
	return New(live, r.vnodes)
}

// With derives the ring with node added.
func (r *Ring) With(node string) *Ring {
	return New(append(r.Nodes(), node), r.vnodes)
}
