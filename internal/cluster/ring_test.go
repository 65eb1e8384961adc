package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"formext/internal/cache"
)

// testKey derives a deterministic cache key from an integer, hashed so the
// ring positions are uniform like real content-addressed keys.
func testKey(i int) cache.Key {
	return cache.Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func TestRingEvenDistribution(t *testing.T) {
	peers := []string{
		"http://127.0.0.1:9301",
		"http://127.0.0.1:9302",
		"http://127.0.0.1:9303",
	}
	r := buildRing(peers)
	const n = 30000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[r.owner(testKey(i))]++
	}
	if len(counts) != len(peers) {
		t.Fatalf("owners = %v, want all %d peers represented", counts, len(peers))
	}
	// 128 virtual nodes per peer keeps each peer's share within a few
	// percent of 1/3; allow a generous band so the test pins "roughly even",
	// not one hash function's exact split.
	for p, c := range counts {
		share := float64(c) / n
		if share < 0.20 || share > 0.47 {
			t.Errorf("peer %s owns %.1f%% of keys, outside [20%%, 47%%]", p, share*100)
		}
	}
}

func TestRingStableAcrossMembershipChange(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	full := buildRing(peers)
	without := buildRing(peers[:2])

	const n = 10000
	moved := 0
	for i := 0; i < n; i++ {
		k := testKey(i)
		before := full.owner(k)
		after := without.owner(k)
		if before != peers[2] {
			// A key not owned by the removed peer must keep its owner:
			// consistent hashing remaps only the removed peer's arcs.
			if after != before {
				t.Fatalf("key %d moved %s -> %s though %s stayed in the ring",
					i, before, after, before)
			}
			continue
		}
		moved++
		if after == peers[2] {
			t.Fatalf("key %d still owned by removed peer", i)
		}
	}
	if moved == 0 {
		t.Fatal("removed peer owned no keys; distribution test is vacuous")
	}
}

func TestRingDeterministicAcrossBuilds(t *testing.T) {
	// Ownership must be a pure function of the membership list — every
	// process in the fleet builds its own ring and they must all agree.
	// Order and duplicates must not matter (the builder sorts and dedupes).
	a := buildRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	b := buildRing([]string{"http://c:1", "http://a:1", "http://b:1", "http://a:1"})
	for i := 0; i < 2000; i++ {
		k := testKey(i)
		if a.owner(k) != b.owner(k) {
			t.Fatalf("rings disagree on key %d: %q vs %q", i, a.owner(k), b.owner(k))
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := buildRing([]string{"http://a:1", "http://b:1"})
	// A key positioned past the highest virtual node must wrap to the first.
	var k cache.Key
	binary.BigEndian.PutUint64(k[:8], ^uint64(0))
	if got, want := r.owner(k), r.points[0].peer; got != want {
		t.Errorf("owner past top of circle = %q, want wrap to %q", got, want)
	}
}

func TestRingEmpty(t *testing.T) {
	r := buildRing(nil)
	if got := r.owner(testKey(1)); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
}
