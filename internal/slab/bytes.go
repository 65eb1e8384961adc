package slab

import "unsafe"

// byteBlockSize is the default byte-block size. Text on a form page is a
// few KB, so one block usually carries a whole extraction.
const byteBlockSize = 4096

// Bytes is a bump allocator for string data. Strings are built as "runs":
// BeginRun starts one, the Append methods add to it, and EndRun carves the
// accumulated bytes into a string without copying (the string aliases the
// block, which is append-only until Reset). A run that outgrows its block
// is relocated as a whole, so the final string is always contiguous.
//
// The zero value is ready to use (blocks are allocated on demand and
// simply become garbage once the carved strings are unreferenced). A nil
// *Bytes silently drops appended runs — only Copy degrades gracefully —
// so callers without an arena should use a zero-value Bytes, not nil.
type Bytes struct {
	cur      []byte
	full     [][]byte
	free     [][]byte
	runStart int // start of the open (or most recently closed) run in cur
}

// BeginRun starts a new string run.
func (b *Bytes) BeginRun() {
	if b == nil {
		return
	}
	b.runStart = len(b.cur)
}

// AppendByte adds one byte to the open run.
func (b *Bytes) AppendByte(c byte) {
	if b == nil {
		return
	}
	if len(b.cur) == cap(b.cur) {
		b.grow(1)
	}
	b.cur = append(b.cur, c)
}

// AppendBytes adds p to the open run.
func (b *Bytes) AppendBytes(p []byte) {
	if b == nil {
		return
	}
	if len(b.cur)+len(p) > cap(b.cur) {
		b.grow(len(p))
	}
	b.cur = append(b.cur, p...)
}

// AppendString adds s to the open run.
func (b *Bytes) AppendString(s string) {
	if b == nil {
		return
	}
	if len(b.cur)+len(s) > cap(b.cur) {
		b.grow(len(s))
	}
	b.cur = append(b.cur, s...)
}

// RunLen returns the length of the open run so far.
func (b *Bytes) RunLen() int {
	if b == nil {
		return 0
	}
	return len(b.cur) - b.runStart
}

// EndRun closes the current run and returns it as a string aliasing the
// slab (no copy). An empty run returns "".
func (b *Bytes) EndRun() string {
	if b == nil {
		return ""
	}
	if len(b.cur) == b.runStart {
		return ""
	}
	return unsafe.String(&b.cur[b.runStart], len(b.cur)-b.runStart)
}

// ReopenRun re-opens the most recently closed run so more bytes can be
// appended and EndRun can carve a longer string covering both the old
// bytes and the new ones. It is only valid when no BeginRun has happened
// since that run's EndRun; the previously carved string stays valid either
// way (relocation keeps old blocks alive).
func (b *Bytes) ReopenRun() {
	// Nothing to do: runStart still marks the run, and the append methods
	// continue from the current tail.
}

// Copy carves a copy of p as a string. Shorthand for a one-shot run.
func (b *Bytes) Copy(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	if b == nil {
		return string(p)
	}
	b.BeginRun()
	b.AppendBytes(p)
	return b.EndRun()
}

// grow makes room for n more run bytes, relocating the open run so it
// stays contiguous. Bytes before the run stay in the retiring block; they
// belong to already-carved strings.
func (b *Bytes) grow(n int) {
	run := b.cur[b.runStart:]
	need := len(run) + n
	var next []byte
	if k := len(b.free); k > 0 && cap(b.free[k-1]) >= need {
		next = b.free[k-1][:0]
		b.free = b.free[:k-1]
	} else {
		size := byteBlockSize
		for size < need {
			size *= 2
		}
		next = make([]byte, 0, size)
	}
	if cap(b.cur) > 0 {
		b.full = append(b.full, b.cur)
	}
	b.cur = append(next, run...)
	b.runStart = 0
}

// Reset forgets all carved strings and reuses the blocks. Only valid when
// nothing carved from this slab is retained (scratch text, not Result
// text).
func (b *Bytes) Reset() {
	if b == nil {
		return
	}
	if cap(b.cur) > 0 {
		b.free = append(b.free, b.cur[:0])
	}
	for _, blk := range b.full {
		b.free = append(b.free, blk[:0])
	}
	b.cur, b.full = nil, b.full[:0]
	b.runStart = 0
}
