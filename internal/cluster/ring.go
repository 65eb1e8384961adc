// Package cluster turns N formserve processes into one sharded service: a
// consistent-hash ring assigns every content-addressed cache key an owning
// peer, non-owners forward misses to the owner over HTTP (so the owner's
// cache and singleflight collapse a fleet-wide stampede into one
// extraction), and a failure detector ejects unreachable peers from the
// ring so requests degrade to local extraction instead of erroring.
//
// The tier is correct because extraction results are content-addressed and
// immutable (PR 5): a key's value can never change, so there is no cache
// coherence problem — any copy of a result, anywhere in the fleet, is the
// result. Ownership exists purely to concentrate the *work* for a key on
// one peer; serving a stale-owner copy or falling back to local extraction
// is never wrong, only (slightly) redundant.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"

	"formext/internal/cache"
)

// replicas is the virtual-node count per peer. 128 points per peer keeps
// the ownership split within a few percent of even for small fleets while
// the ring stays tiny (N×128 16-byte points).
const replicas = 128

// ring is an immutable consistent-hash ring: peers × replicas points on a
// 64-bit circle, sorted by position. Lookups walk clockwise from the key's
// position to the first point; because every peer's points are a pure
// function of its address, adding or removing a peer moves only the keys
// in the arcs that peer's points bound — membership changes never reshuffle
// ownership wholesale.
//
// A ring is built once and read concurrently without locks; membership
// changes build a new ring and swap it in under the Cluster's lock.
type ring struct {
	points []ringPoint
	peers  []string // the distinct peer addresses on the ring, sorted
}

// ringPoint is one virtual node: a position on the circle and the peer that
// owns the arc ending there.
type ringPoint struct {
	pos  uint64
	peer string
}

// buildRing places replicas points per peer. Positions come from the first
// 8 bytes of SHA-256(addr "#" i) — the same hash family as the cache keys,
// so positions are uniform and, critically, identical in every process
// that builds a ring over the same addresses. An empty peer list yields an
// empty ring (owner lookups report no owner).
func buildRing(peers []string) *ring {
	distinct := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p != "" && !seen[p] {
			seen[p] = true
			distinct = append(distinct, p)
		}
	}
	sort.Strings(distinct)
	r := &ring{
		points: make([]ringPoint, 0, len(distinct)*replicas),
		peers:  distinct,
	}
	for _, p := range distinct {
		for i := 0; i < replicas; i++ {
			sum := sha256.Sum256([]byte(p + "#" + strconv.Itoa(i)))
			r.points = append(r.points, ringPoint{
				pos:  binary.BigEndian.Uint64(sum[:8]),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].pos < r.points[b].pos })
	return r
}

// owner returns the peer owning k, walking clockwise from the key's
// position to the next virtual node (wrapping past the top of the circle).
// Keys are cryptographic hashes, so their first 8 bytes are a uniform ring
// position. Returns "" on an empty ring.
func (r *ring) owner(k cache.Key) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := binary.BigEndian.Uint64(k[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}
