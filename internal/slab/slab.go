// Package slab provides bump allocators for the extraction front end.
//
// A slab carves many small objects out of a few large backing arrays so a
// parse that builds hundreds of DOM nodes, layout boxes and tokens costs a
// handful of allocations instead of one per object. The design follows the
// core parser's instance slabs: allocation only ever moves forward, there
// is no per-object free, and the owner Resets the slab for reuse once
// nothing carved from it is referenced. Carved objects die with the run:
// DOM nodes and layout boxes are never retained, and tokens are copied out
// into exact-size storage before a Result keeps them.
//
// Slabs are single-goroutine state, like everything else that is per-parse
// mutable; callers pool whole arenas, not individual slabs.
package slab

// blockSize is the number of objects per backing array: big enough that a
// typical page costs one or two blocks per slab.
const blockSize = 256

// Slab is a bump allocator for values of type T. The zero value is ready
// to use. A nil *Slab[T] is also valid: every allocation falls back to the
// ordinary heap, which keeps arena-threading optional for callers that do
// not care (tests, one-shot tools).
type Slab[T any] struct {
	cur  []T   // current block; len is the high-water mark, cap the block size
	full [][]T // exhausted blocks, kept so Reset can account and reuse
	free [][]T // blocks recycled by Reset, ready to be cur again
}

// New returns a pointer to a fresh zero T carved from the slab.
func (s *Slab[T]) New() *T {
	if s == nil {
		return new(T)
	}
	if len(s.cur) == cap(s.cur) {
		s.grow(1)
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Make returns a zeroed slice of length n carved from the slab. Slices
// larger than a block fall back to the heap.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if s == nil || n > blockSize {
		return make([]T, n)
	}
	if len(s.cur)+n > cap(s.cur) {
		s.grow(n)
	}
	start := len(s.cur)
	s.cur = s.cur[:start+n]
	return s.cur[start : start+n : start+n]
}

// Append appends v to dst, growing through the slab when capacity runs
// out. Unlike built-in append, a grown slice never shares memory with a
// later allocation: growth copies into a fresh carve sized to double the
// old capacity.
func (s *Slab[T]) Append(dst []T, v T) []T {
	if len(dst) < cap(dst) {
		return append(dst, v)
	}
	if s == nil {
		return append(dst, v)
	}
	n := cap(dst) * 2
	if n < 4 {
		n = 4
	}
	grown := s.Make(n)[:len(dst)]
	copy(grown, dst)
	return append(grown, v)
}

// grow makes room for at least n more objects. The partial current block
// stays live (objects carved from it remain valid); it simply moves to the
// full list.
func (s *Slab[T]) grow(n int) {
	if cap(s.cur) > 0 {
		s.full = append(s.full, s.cur)
	}
	if k := len(s.free); k > 0 && cap(s.free[k-1]) >= n {
		s.cur = s.free[k-1][:0]
		s.free = s.free[:k-1]
		return
	}
	size := blockSize
	if n > size {
		size = n
	}
	s.cur = make([]T, 0, size)
}

// Reset forgets every object and keeps the backing blocks for reuse, and
// the block lists keep their capacity, so a warm slab refills without
// allocating. The blocks are zeroed first so stale pointers inside
// recycled objects do not pin freed object graphs (the same discipline as
// the core engine's forgetInstances). Only call Reset when nothing carved
// from the slab is retained.
func (s *Slab[T]) Reset() {
	if s == nil {
		return
	}
	if cap(s.cur) > 0 {
		clear(s.cur)
		s.free = append(s.free, s.cur[:0])
	}
	for _, b := range s.full {
		clear(b)
		s.free = append(s.free, b[:0])
	}
	s.cur, s.full = nil, s.full[:0]
}

// Live returns the number of objects currently carved.
func (s *Slab[T]) Live() int {
	if s == nil {
		return 0
	}
	n := len(s.cur)
	for _, b := range s.full {
		n += len(b)
	}
	return n
}
