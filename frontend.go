package formext

import (
	"sync"
	"unsafe"

	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/token"
)

// frontArena bundles the front half of the pipeline's arenas — DOM nodes,
// layout boxes, tokens — so one extraction makes a handful of slab-block
// allocations instead of one per node. The bundles are pooled process-wide:
// arena contents are options-independent, so any extractor can draw any
// bundle, and a warm bundle's block lists and scratch buffers carry their
// capacity into the next extraction.
//
// Ownership: no front-end arena memory outlives an extraction. The
// tokenizer copies every string it stores and hands the finished token set
// over into exact-size storage of its own, and the submission envelope
// clones its own strings, so nothing the Result holds points into an
// arena, the DOM, the render tree or the page bytes. Releasing the bundle
// therefore recycles every arena's blocks, zeroed, for the next
// extraction. Release is wired through a defer so a panic anywhere in the
// pipeline still leaves the bundle empty and poolable.
type frontArena struct {
	dom htmlparse.Arena
	lay layout.Arena
	tok token.Arena
}

// release recycles the DOM, layout and token arenas.
func (fa *frontArena) release() {
	fa.dom.Release()
	fa.lay.Release()
	fa.tok.Release()
}

var frontArenas = sync.Pool{New: func() any { return new(frontArena) }}

// viewBytes views a string's bytes without copying; safe everywhere the
// pipeline is a pure reader (it is — the tree aliases rather than mutates).
func viewBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
