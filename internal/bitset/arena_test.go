package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestCopyFrom(t *testing.T) {
	src := Of(130, 0, 64, 129)
	dst := Of(130, 5)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Errorf("dst = %v, want %v", dst, src)
	}
	// Independent storage: mutating dst must not touch src.
	dst.Remove(64)
	if !src.Has(64) {
		t.Error("CopyFrom aliased the source words")
	}
}

func TestReset(t *testing.T) {
	var s Set
	s.Reset(100)
	s.Add(99)
	if !s.Has(99) || s.Len() != 100 {
		t.Fatalf("after Reset(100): %v len %d", s, s.Len())
	}
	// Shrinking reuses storage and clears members.
	s.Reset(40)
	if s.Len() != 40 || !s.Empty() {
		t.Errorf("after Reset(40): %v len %d", s, s.Len())
	}
	s.Add(39)
	// Growing past capacity reallocates; previous members are gone.
	s.Reset(1000)
	if !s.Empty() || s.Len() != 1000 {
		t.Errorf("after Reset(1000): count=%d len=%d", s.Count(), s.Len())
	}
	s.Reset(-3)
	if s.Len() != 0 {
		t.Errorf("negative universe: len=%d", s.Len())
	}
}

func TestResetZeroAlloc(t *testing.T) {
	var s Set
	s.Reset(512)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(512)
		s.Add(300)
	})
	if allocs != 0 {
		t.Errorf("Reset at capacity allocates %.1f times per run", allocs)
	}
}

func TestCompareAgainstMembers(t *testing.T) {
	// Compare must order exactly like lexicographic comparison of the
	// member slices (for non-prefix pairs, which is all the parser ever
	// compares: it orders by count first).
	f := func(alo, ahi, blo, bhi uint64) bool {
		a, b := fromMask(alo, ahi), fromMask(blo, bhi)
		got := a.Compare(b)
		ma, mb := a.Members(), b.Members()
		want := 0
		for k := 0; k < len(ma) && k < len(mb); k++ {
			if ma[k] != mb[k] {
				if ma[k] < mb[k] {
					want = -1
				} else {
					want = 1
				}
				break
			}
		}
		if want == 0 && len(ma) != len(mb) {
			// Prefix case: the shorter sequence sorts first.
			if len(ma) < len(mb) {
				want = -1
			} else {
				want = 1
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePrefixAndEqual(t *testing.T) {
	a := Of(100, 3, 50)
	b := Of(100, 3, 50, 70)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("prefix must sort before its extension")
	}
	if a.Compare(a.Clone()) != 0 {
		t.Error("equal sets must compare 0")
	}
}

func TestArena(t *testing.T) {
	var a Arena
	a.Reset(70)
	s1 := a.New()
	s2 := a.New()
	s1.Add(0)
	s1.Add(69)
	s2.Add(1)
	if s2.Has(0) || s2.Has(69) || s1.Has(1) {
		t.Fatal("arena sets share bits")
	}
	if s1.Len() != 70 || s2.Len() != 70 {
		t.Errorf("universe = %d, %d", s1.Len(), s2.Len())
	}
	// Arena sets interoperate with ordinary sets.
	o := Of(70, 69)
	if !s1.Intersects(o) {
		t.Error("arena set should intersect {69}")
	}
	// Crossing a slab boundary yields fresh, empty sets.
	sets := []Set{s1, s2}
	for i := 0; i < 3*slabSets; i++ {
		s := a.New()
		if !s.Empty() {
			t.Fatalf("set %d from arena not empty", i)
		}
		s.Add(i % 70)
		sets = append(sets, s)
	}
	want := []int{0, 69}
	if got := sets[0].Members(); !equalInts(got, want) {
		t.Errorf("slab growth corrupted earlier set: %v", got)
	}
}

func TestArenaZeroUniverse(t *testing.T) {
	var a Arena
	a.Reset(0)
	s := a.New()
	if s.Len() != 0 || !s.Empty() {
		t.Errorf("zero-universe arena set: %v", s)
	}
	a.Reset(-1)
	if s := a.New(); s.Len() != 0 {
		t.Errorf("negative universe: %v", s)
	}
}

func TestArenaAmortizedAllocs(t *testing.T) {
	var a Arena
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset(64)
		for i := 0; i < slabSets; i++ {
			s := a.New()
			s.Add(i % 64)
		}
	})
	// One slab allocation per slabSets sets.
	if allocs > 1.5 {
		t.Errorf("arena allocates %.1f times per slab of %d sets", allocs, slabSets)
	}
}

func TestArenaRecyclesClearedSlabs(t *testing.T) {
	var a Arena
	a.Reset(130)
	for i := 0; i < 2*slabSets; i++ {
		s := a.New()
		s.Add(i % 130)
		s.Add(129)
	}
	// The next cycle reuses the same slabs, cleared, at no allocation.
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset(130)
		for i := 0; i < 2*slabSets; i++ {
			s := a.New()
			if !s.Empty() {
				t.Fatalf("set %d of a recycled slab holds %v", i, s)
			}
			s.Add(i % 130)
		}
	})
	if allocs != 0 {
		t.Errorf("a recycled cycle allocates %.1f times", allocs)
	}
	// A wider universe than the spare slabs were cut for still gets room.
	a.Reset(64 * 130)
	s := a.New()
	s.Add(64*130 - 1)
	if s.Len() != 64*130 || s.Count() != 1 {
		t.Errorf("wide set after recycling: len %d count %d", s.Len(), s.Count())
	}
}

func TestCloneInto(t *testing.T) {
	src := Of(130, 0, 64, 129)
	buf := make([]uint64, 2*src.Words())
	c := src.CloneInto(buf)
	if !c.Equal(src) || c.Words() != 3 {
		t.Fatalf("CloneInto = %v (%d words), want %v", c, c.Words(), src)
	}
	d := src.CloneInto(buf[c.Words():])
	d.Remove(64)
	if !c.Has(64) || !src.Has(64) {
		t.Error("a clone shares words with its neighbour or its source")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(append([]int(nil), a...))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
