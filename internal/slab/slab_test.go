package slab

import (
	"fmt"
	"testing"
)

func TestSlabNewDistinct(t *testing.T) {
	var s Slab[int]
	seen := map[*int]bool{}
	for i := 0; i < 3*blockSize; i++ {
		p := s.New()
		if seen[p] {
			t.Fatalf("New returned the same pointer twice")
		}
		seen[p] = true
		*p = i
	}
	if got := s.Live(); got != 3*blockSize {
		t.Fatalf("Live = %d, want %d", got, 3*blockSize)
	}
	// Every carved object retains its value across block growth.
	i := 0
	for p := range seen {
		_ = p
		i++
	}
	if i != 3*blockSize {
		t.Fatalf("lost objects")
	}
}

func TestSlabMake(t *testing.T) {
	var s Slab[string]
	a := s.Make(10)
	b := s.Make(10)
	a[9] = "x"
	if b[0] != "" {
		t.Fatalf("Make slices overlap")
	}
	b = append(b, "beyond")
	c := s.Make(1)
	if c[0] != "" {
		t.Fatalf("append beyond Make cap bled into the slab: %q", c[0])
	}
	big := s.Make(blockSize + 1)
	if len(big) != blockSize+1 {
		t.Fatalf("big Make wrong length")
	}
	if s.Make(0) != nil {
		t.Fatalf("Make(0) should be nil")
	}
}

func TestSlabAppendGrowth(t *testing.T) {
	var s Slab[int]
	var sl []int
	for i := 0; i < 100; i++ {
		sl = s.Append(sl, i)
	}
	for i, v := range sl {
		if v != i {
			t.Fatalf("Append lost element %d: %d", i, v)
		}
	}
}

func TestSlabNilFallback(t *testing.T) {
	var s *Slab[int]
	p := s.New()
	*p = 7
	sl := s.Make(4)
	sl = s.Append(sl, 1)
	if s.Live() != 0 {
		t.Fatalf("nil slab should report empty")
	}
	s.Reset()
}

func TestSlabResetReusesBlocks(t *testing.T) {
	var s Slab[*int]
	x := 1
	for i := 0; i < blockSize+5; i++ {
		*s.New() = &x
	}
	s.Reset()
	if s.Live() != 0 {
		t.Fatalf("Live after Reset = %d", s.Live())
	}
	// Recycled blocks must be zeroed: a fresh New sees nil.
	for i := 0; i < blockSize+5; i++ {
		if *s.New() != nil {
			t.Fatalf("Reset left a stale pointer")
		}
	}
}

// TestSlabGrowthKeepsObjects: objects carved from a block stay valid
// after the slab moves on to the next one, until Reset.
func TestSlabGrowthKeepsObjects(t *testing.T) {
	var s Slab[int]
	var ptrs []*int
	for i := 0; i < blockSize+10; i++ {
		p := s.New()
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("object %d corrupted by block growth", i)
		}
	}
	if s.Live() != blockSize+10 {
		t.Fatalf("Live = %d, want %d", s.Live(), blockSize+10)
	}
	s.Reset()
	if s.Live() != 0 {
		t.Fatalf("slab not empty after Reset")
	}
}

func TestBytesRuns(t *testing.T) {
	var b Bytes
	b.BeginRun()
	b.AppendString("hello")
	b.AppendByte(' ')
	b.AppendBytes([]byte("world"))
	got := b.EndRun()
	if got != "hello world" {
		t.Fatalf("EndRun = %q", got)
	}
	b.BeginRun()
	if s := b.EndRun(); s != "" {
		t.Fatalf("empty run = %q", s)
	}
}

func TestBytesRunSurvivesGrowth(t *testing.T) {
	var b Bytes
	var words []string
	// Build runs until several blocks have been retired; every earlier
	// carved string must stay intact.
	for i := 0; i < 200; i++ {
		b.BeginRun()
		for j := 0; j < 10; j++ {
			fmt.Fprintf(discard{&b}, "w%d-%d ", i, j)
		}
		words = append(words, b.EndRun())
	}
	for i, w := range words {
		want := ""
		for j := 0; j < 10; j++ {
			want += fmt.Sprintf("w%d-%d ", i, j)
		}
		if w != want {
			t.Fatalf("run %d corrupted: %q", i, w)
		}
	}
}

// discard adapts Bytes to io.Writer for the growth test.
type discard struct{ b *Bytes }

func (d discard) Write(p []byte) (int, error) { d.b.AppendBytes(p); return len(p), nil }

func TestBytesRunRelocation(t *testing.T) {
	var b Bytes
	b.BeginRun()
	big := make([]byte, byteBlockSize-3)
	for i := range big {
		big[i] = 'a'
	}
	b.AppendBytes(big)
	prefix := b.EndRun()
	// Reopen and push the run across the block boundary: the longer carve
	// must be contiguous and the earlier string unharmed.
	b.ReopenRun()
	b.AppendString("0123456789")
	whole := b.EndRun()
	if len(whole) != len(big)+10 || whole[:len(big)] != string(big) || whole[len(big):] != "0123456789" {
		t.Fatalf("relocated run wrong: len=%d", len(whole))
	}
	if prefix != string(big) {
		t.Fatalf("prefix corrupted by relocation")
	}
}

func TestBytesCopyAndReset(t *testing.T) {
	var b Bytes
	s := b.Copy([]byte("abc"))
	if s != "abc" {
		t.Fatalf("Copy = %q", s)
	}
	b.BeginRun()
	b.AppendString("xyzw")
	_ = b.EndRun()
	b.Reset()
	b.BeginRun()
	b.AppendString("ab")
	if got := b.EndRun(); got != "ab" {
		t.Fatalf("after Reset = %q", got)
	}

	var nb *Bytes
	if nb.Copy([]byte("zz")) != "zz" {
		t.Fatalf("nil Copy broken")
	}
	nb.Reset()
}

// TestResetRefillAllocatesNothing: once a slab has seen a run's peak, a
// Reset and refill to that peak reuses every block and the block lists'
// capacity — the steady state of the pooled front-end arenas.
func TestResetRefillAllocatesNothing(t *testing.T) {
	var s Slab[*int]
	var b Bytes
	x := 1
	fill := func() {
		for i := 0; i < 5*blockSize; i++ {
			*s.New() = &x
		}
		for i := 0; i < 5; i++ {
			b.BeginRun()
			for j := 0; j < byteBlockSize-1; j++ {
				b.AppendByte('x')
			}
			_ = b.EndRun()
		}
		s.Reset()
		b.Reset()
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("warm Reset/refill allocated %v times per run, want 0", n)
	}
}
