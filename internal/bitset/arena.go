package bitset

// Arena hands out same-universe Sets whose word storage is sliced from
// large shared slabs, so a parse that creates thousands of instance covers
// pays one heap allocation per slab instead of one per cover. Sets created
// by an Arena are ordinary Sets in every way except provenance.
//
// Slabs recycle: Reset clears the words the previous cycle handed out and
// keeps the slabs for the next one, so every set an Arena created is
// invalid once Reset runs. A set that must outlive the cycle is copied out
// first (Set.Clone, Set.CloneInto).
//
// An Arena is single-owner scratch state — the parser engine that holds it
// — and must not be shared across goroutines.
type Arena struct {
	universe int
	wpn      int      // words per set
	slab     []uint64 // the slab being carved
	used     [][]uint64
	free     [][]uint64
}

// slabSets is how many sets one slab holds. 128 keeps slabs around 1-4 KiB
// for typical token universes — small enough not to strand memory when a
// parse creates few instances, large enough to amortize allocation when it
// creates thousands. maxFreeWords caps the spare slabs a Reset keeps at
// 32 KiB, room for the 4,096 single-word covers the parser's spare
// instance slabs hold, so a pooled arena pins no more than a typical parse
// uses: a bigger cycle or a wider universe allocates its excess afresh.
const (
	slabSets     = 128
	maxFreeWords = 4096
)

// Reset prepares the arena to allocate sets over the universe [0, n). The
// slabs the previous cycle carved are cleared and kept for reuse, up to
// maxFreeWords of them.
func (a *Arena) Reset(n int) {
	if n < 0 {
		n = 0
	}
	a.universe = n
	a.wpn = (n + wordBits - 1) / wordBits
	kept := 0
	for _, s := range a.free {
		kept += cap(s)
	}
	for _, s := range a.used {
		clear(s)
		if kept+cap(s) <= maxFreeWords {
			a.free = append(a.free, s[:0])
			kept += cap(s)
		}
	}
	clear(a.used)
	a.used = a.used[:0]
	a.slab = nil
}

// New returns an empty set over the arena's universe, carved from the
// current slab.
func (a *Arena) New() Set {
	if a.wpn == 0 {
		return Set{n: a.universe}
	}
	if len(a.slab)+a.wpn > cap(a.slab) {
		if k := len(a.free); k > 0 && cap(a.free[k-1]) >= a.wpn {
			a.slab = a.free[k-1]
			a.free = a.free[:k-1]
		} else {
			a.slab = make([]uint64, 0, a.wpn*slabSets)
		}
		a.used = append(a.used, nil)
	}
	start := len(a.slab)
	a.slab = a.slab[:start+a.wpn]
	a.used[len(a.used)-1] = a.slab
	// Three-index slice: a set must never grow into its neighbor's words.
	return Set{words: a.slab[start : start+a.wpn : start+a.wpn], n: a.universe}
}
