package service

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring assigning job content hashes to replica
// names. Each replica contributes vnodes virtual points so ownership
// spreads evenly even with three replicas; looking up a hash walks
// clockwise to the first point at or past it. Adding or removing one
// replica moves only ~1/N of the hash space — the property that makes a
// killed replica's share redistribute without reshuffling everything.
type Ring struct {
	points []ringPoint // sorted by pos
	names  []string    // member names, sorted (for stable iteration)
}

type ringPoint struct {
	pos  uint64
	name string
}

// vnodes is the virtual-node count per replica: 64 points per member
// keeps the expected ownership imbalance under a few percent for
// single-digit fleets.
const vnodes = 64

// NewRing builds a ring over the given replica names. Duplicate names
// collapse; order does not matter — two replicas constructing rings from
// the same member set agree on every ownership decision, which is what
// lets routing work without a coordinator.
func NewRing(names []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.names = append(r.names, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: fnv64(fmt.Sprintf("%s#%d", n, v)), name: n})
		}
	}
	sort.Strings(r.names)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].name < r.points[j].name // deterministic tie-break
	})
	return r
}

// Owner returns the replica owning the given content hash ("" on an
// empty ring).
func (r *Ring) Owner(hash string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	pos := fnv64(hash)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap: clockwise past the top of the ring
	}
	return r.points[i].name
}

// Members returns the replica names on the ring, sorted.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// fnv64 hashes s to a ring position: FNV-64a followed by a murmur3-style
// finalizer. Raw FNV clusters badly on short strings sharing a prefix —
// "r0#0".."r0#63" land within a few thousand positions of each other,
// which collapses the virtual nodes into one arc and wrecks the balance
// the vnodes exist to provide. The finalizer's avalanche spreads them.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
