// Package cluster is the serving tier's horizontal layer: a routing
// gateway (Gate) that spreads estimate traffic across prmserved
// replicas with consistent-hash routing, health-checks them through
// /readyz, circuit-breaks the flappy ones, retries idempotent requests
// along the failover chain, and orchestrates rolling rollout of model
// generations over the store's CRC-framed snapshot format.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over replica addresses.
// Each member owns VNodes points on the ring, so losing one replica
// moves only its own keyspace share (the cache-locality property the
// gate routes for: one (model, query) shape keeps landing on one
// replica's inference cache). Build a new Ring on membership change;
// reads need no locks.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int // index into members
}

// NewRing builds a ring over members with vnodes points each.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	for i, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Deterministic order on the (vanishingly rare) hash collision.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member list (shared; do not mutate).
func (r *Ring) Members() []string { return r.members }

// Sequence returns up to n distinct members in ring order starting at
// the key's successor point — the primary owner first, then the
// failover order. The walk visits points, skipping members already
// chosen, so every caller agrees on the fallback chain for a key.
func (r *Ring) Sequence(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, r.members[p.idx])
		}
	}
	return out
}

// hash64 is fnv64a with a splitmix64 finalizer: raw FNV of short,
// similar strings ("replica#3", "key-17") leaves enough correlation in
// the high bits to skew ring ownership badly; the finalizer restores
// the avalanche the sort order depends on.
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
