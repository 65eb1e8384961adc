// Package bitset implements a compact fixed-universe bit set used to track
// which input tokens a parse-tree instance covers. Conflict detection
// between instances (Section 4.2 of the paper) is cover intersection, and
// partial-tree maximization (Section 5.3) is cover subsumption; both reduce
// to word-wise boolean operations here.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a bit set over the token universe [0, n). The zero value is an
// empty set over an empty universe; use New to size it. Sets are value-like:
// operations that combine sets allocate results rather than mutating
// receivers, except for the explicitly mutating Add/Remove/UnionWith.
type Set struct {
	words []uint64
	n     int
}

const wordBits = 64

// New returns an empty set over the universe [0, n).
func New(n int) Set {
	if n < 0 {
		n = 0
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Of returns a set over [0, n) containing exactly the given members.
func Of(n int, members ...int) Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Len returns the size of the universe.
func (s Set) Len() int { return s.n }

// Add inserts i into the set. Out-of-universe indices panic, as they
// indicate a bug in token numbering.
func (s Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index " + strconv.Itoa(i) + " out of universe " + strconv.Itoa(s.n))
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index " + strconv.Itoa(i) + " out of universe " + strconv.Itoa(s.n))
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Words returns how many 64-bit words hold the set's members: the room
// CloneInto needs.
func (s Set) Words() int { return len(s.words) }

// CloneInto copies s into the front of buf, which must hold at least
// s.Words() words, and returns the copy: the bulk form of Clone, for a
// caller that places many sets in one block. The copy's storage ends where
// its words do, so it never grows into the rest of buf.
func (s Set) CloneInto(buf []uint64) Set {
	w := len(s.words)
	c := Set{words: buf[:w:w], n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s's members with t's. The two sets must share a
// universe size.
func (s Set) CopyFrom(t Set) {
	s.checkUniverse(t)
	copy(s.words, t.words)
}

// Reset reinitializes s in place to an empty set over [0, n), reusing the
// word storage when capacity allows — the scratch-set idiom of the parser
// engine, which resizes one spare set to the instance universe of the
// moment instead of allocating a fresh set per use.
func (s *Set) Reset(n int) {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Compare orders sets by their member sequences, exactly like comparing
// Members() slices lexicographically but without allocating: the set whose
// member at the first divergence is smaller precedes, a proper prefix
// precedes its extension, and equal sets compare 0. The two sets must share
// a universe size.
func (s Set) Compare(t Set) int {
	s.checkUniverse(t)
	for i, w := range s.words {
		tw := t.words[i]
		if w == tw {
			continue
		}
		diff := w ^ tw
		low := diff & -diff
		rest := ^(low | (low - 1)) // bits strictly above the divergence
		if w&low != 0 {
			// s contains the divergent member, so s precedes — unless t
			// has no member beyond it, making t a proper prefix of s.
			if tw&rest != 0 || anyNonzero(t.words[i+1:]) {
				return -1
			}
			return 1
		}
		if w&rest != 0 || anyNonzero(s.words[i+1:]) {
			return 1
		}
		return -1
	}
	return 0
}

func anyNonzero(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Union returns s ∪ t as a new set. The two sets must share a universe size.
func (s Set) Union(t Set) Set {
	s.checkUniverse(t)
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// UnionWith adds all members of t to s in place.
func (s Set) UnionWith(t Set) {
	s.checkUniverse(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersects reports whether s and t share any member — the conflict test
// between two parse instances.
func (s Set) Intersects(t Set) bool {
	s.checkUniverse(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Intersection returns s ∩ t as a new set.
func (s Set) Intersection(t Set) Set {
	s.checkUniverse(t)
	u := New(s.n)
	for i := range s.words {
		u.words[i] = s.words[i] & t.words[i]
	}
	return u
}

// SubsetOf reports whether every member of s is in t (s ⊆ t).
func (s Set) SubsetOf(t Set) bool {
	s.checkUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t strictly — the subsumption test of
// partial-tree maximization.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !t.SubsetOf(s)
}

// Equal reports whether s and t have identical members.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Members returns the members in ascending order.
func (s Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.Count()))
}

// AppendMembers appends the members to dst in ascending order, so a caller
// with a reused buffer lists them without allocating.
func (s Set) AppendMembers(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// Key returns a compact string usable as a map key for deduplicating
// instances by (symbol, cover).
func (s Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 17)
	for _, w := range s.words {
		b.WriteString(strconv.FormatUint(w, 16))
		b.WriteByte(':')
	}
	return b.String()
}

// String renders the set as {a, b, c} for debugging.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range s.Members() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(m))
	}
	b.WriteByte('}')
	return b.String()
}

func (s Set) checkUniverse(t Set) {
	if s.n != t.n {
		panic("bitset: mismatched universes " + strconv.Itoa(s.n) + " and " + strconv.Itoa(t.n))
	}
}
