package layout

import (
	"formext/internal/htmlparse"
	"formext/internal/slab"
)

// Arena supplies every allocation a layout run makes: Box structs, the
// child-pointer slices behind Box.Children, the joined text behind
// TextBox.Text, and the run's scratch — flow structs, table grids, column
// widths, the cell-measure memo — so a run performs no per-node heap
// allocation at all.
//
// The render tree lives only until Release: the tokenizer copies whatever
// it keeps, so Release resets every slab — blocks are zeroed and kept for
// the next run instead of re-allocated per extraction — and clears the
// memo map for reuse.
//
// One arena serves one layout run at a time. The facade pools arenas; the
// zero value is ready to use, and a nil *Arena makes every helper fall
// back to plain heap allocation, which keeps Engine.Layout usable without
// one.
type Arena struct {
	boxes   slab.Slab[Box]
	ptrs    slab.Slab[*Box]
	text    slab.Bytes
	flows   slab.Slab[flow]
	rows    slab.Slab[*htmlparse.Node]
	cells   slab.Slab[tableCell]
	rowCell slab.Slab[[]tableCell]
	laid    slab.Slab[laidCell]
	nums    slab.Slab[float64]
	spans   []wordSpan
	measure map[*htmlparse.Node]float64
}

// Release ends the render tree's life and recycles the arena for the next
// run; boxes and text carved from it must not be used afterwards (Reset's
// zeroing also unpins the DOM the boxes pointed at).
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.boxes.Reset()
	a.ptrs.Reset()
	a.text.Reset()
	a.flows.Reset()
	a.rows.Reset()
	a.cells.Reset()
	a.rowCell.Reset()
	a.laid.Reset()
	a.nums.Reset()
	a.spans = a.spans[:0]
	clear(a.measure)
}

func (a *Arena) newBox() *Box {
	if a == nil {
		return &Box{}
	}
	b := a.boxes.New()
	*b = Box{}
	return b
}

func (a *Arena) appendBox(dst []*Box, b *Box) []*Box {
	if a == nil {
		return append(dst, b)
	}
	return a.ptrs.Append(dst, b)
}

func (a *Arena) newFlow() *flow {
	if a == nil {
		return &flow{}
	}
	f := a.flows.New()
	*f = flow{}
	return f
}
