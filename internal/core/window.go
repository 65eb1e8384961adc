package core

import (
	"math"
	"slices"

	"formext/internal/geom"
	"formext/internal/grammar"
)

// Join windows. Most production constraints are the §4.1 adjacencies —
// above/below/left/right — and adjacency implies proximity: Above(a, b)
// fails whenever b.Y1 lies outside [a.Y2−AlignTol, a.Y2+MaxVGap], and
// Left(a, b) whenever b.X1 lies outside [a.X2−AlignTol, a.X2+MaxHGap] (see
// geom.Thresholds). When a top-level ∧-factor of a constraint is such a
// relation over two component variables, the later of the two join slots
// only needs the candidates whose coordinate falls inside the window the
// earlier slot's chosen instance opens. The engine keeps each candidate
// list sorted by that coordinate, binary-searches the window, and visits
// the hits in ascending list position — exactly the order, and exactly the
// subset-that-can-match, of the full scan — so instance IDs, dedup and
// truncation are unchanged; only candidates whose constraint would have
// rejected them are never visited. The full constraint is still evaluated
// on every visited candidate.

// winKey names one rectangle coordinate.
type winKey uint8

const (
	keyX1 winKey = iota
	keyX2
	keyY1
	keyY2
	numWinKeys
)

// of returns the coordinate of r that k names.
func (k winKey) of(r geom.Rect) float64 {
	switch k {
	case keyX1:
		return r.X1
	case keyX2:
		return r.X2
	case keyY1:
		return r.Y1
	}
	return r.Y2
}

// slotWindow bounds one join slot's candidates by an adjacency factor. For
// the relation rel(P, Q) normalized to Above or Left, the window is
// [c−AlignTol, c+gap] on Q's near edge when Q is the windowed slot
// (forward), and [c−gap, c+AlignTol] on P's far edge when P is, where c is
// the anchor's facing edge and gap is MaxVGap or MaxHGap.
type slotWindow struct {
	on       bool
	anchor   int    // the earlier slot whose chosen instance anchors the window
	anchorAt winKey // the anchor's coordinate c
	key      winKey // the windowed candidates' coordinate
	vertical bool   // Above (MaxVGap) rather than Left (MaxHGap)
	forward  bool   // the windowed slot is the relation's second operand
}

// windowSlack widens every window, relative to the magnitudes involved, so
// that floating-point rounding in the relation's own arithmetic (b.X1−a.X2
// against MaxHGap, b.X1+AlignTol against a.X2) can never exclude a
// candidate the relation accepts: the window is a strict superset.
const windowSlack = 1e-9

// bounds returns the window the anchor rectangle opens under th. A NaN
// bound (a NaN anchor coordinate or threshold) means no window: the caller
// falls back to the full scan. Infinite inputs widen the window to the
// whole line or yield NaN, both of which stay correct.
func (w *slotWindow) bounds(th *geom.Thresholds, anchor geom.Rect) (lo, hi float64) {
	c := w.anchorAt.of(anchor)
	gap := th.MaxHGap
	if w.vertical {
		gap = th.MaxVGap
	}
	tol := th.AlignTol
	if w.forward {
		lo, hi = c-tol, c+gap
	} else {
		lo, hi = c-gap, c+tol
	}
	slack := windowSlack * (1 + math.Abs(c) + math.Abs(gap) + math.Abs(tol))
	return lo - slack, hi + slack
}

// windowsOf scans a production's top-level ∧-chain for adjacency factors
// over two distinct component variables and returns one window per slot
// (nil when the production has none). A slot constrained by several such
// factors takes the first in grammar order.
func windowsOf(p *grammar.Production) []slotWindow {
	slot := make(map[string]int, len(p.Components))
	for j, c := range p.Components {
		slot[c.Var] = j
	}
	var out []slotWindow
	for _, f := range grammar.FlattenAnd(p.Constraint, nil) {
		call, ok := f.(*grammar.CallExpr)
		if !ok || len(call.Args) != 2 {
			continue
		}
		var vertical, swap bool
		switch call.Name {
		case "above":
			vertical = true
		case "below":
			vertical, swap = true, true
		case "left":
		case "right":
			swap = true
		default:
			continue
		}
		sp, okp := grammar.VarSlot(call.Args[0], slot)
		sq, okq := grammar.VarSlot(call.Args[1], slot)
		if !okp || !okq || sp == sq {
			continue
		}
		if swap {
			sp, sq = sq, sp
		}
		// The relation is now Above(P, Q) or Left(P, Q) with P in slot sp
		// and Q in slot sq: Q's near edge (Y1/X1) follows P's far edge
		// (Y2/X2).
		near, far := keyX1, keyX2
		if vertical {
			near, far = keyY1, keyY2
		}
		w := slotWindow{on: true, vertical: vertical, forward: sq > sp}
		ws := sq
		if w.forward {
			w.anchor, w.anchorAt, w.key = sp, far, near
		} else {
			ws = sp
			w.anchor, w.anchorAt, w.key = sq, near, far
		}
		if out == nil {
			out = make([]slotWindow, len(p.Components))
		}
		if !out[ws].on {
			out[ws] = w
		}
	}
	return out
}

// winEntry is one indexed candidate: its key coordinate and its position
// in the join-candidate list.
type winEntry struct {
	k   float64
	pos int32
}

// winIndex is one (symbol, coordinate) index: the positions of the first n
// entries of the symbol's join-candidate list, sorted by that coordinate.
// It belongs to the fix point numbered epoch — candidate lists are
// recompacted at every fix point's start — and extends itself as the list
// grows within one. An index holding a NaN key cannot be searched; windows
// over it fall back to the full scan.
type winIndex struct {
	epoch uint64
	n     int
	nan   bool
	ents  []winEntry
	tmp   []winEntry
}

// update brings the index up to the list for fix point epoch: a rebuild on
// a new epoch, otherwise a sort of the new tail merged into the sorted
// prefix.
func (ix *winIndex) update(epoch uint64, key winKey, list []*grammar.Instance) {
	if ix.epoch != epoch || ix.n > len(list) {
		ix.epoch, ix.n, ix.nan = epoch, 0, false
		ix.ents = ix.ents[:0]
	}
	if ix.n == len(list) {
		return
	}
	old := len(ix.ents)
	for p := ix.n; p < len(list); p++ {
		k := key.of(list[p].Pos)
		if math.IsNaN(k) {
			ix.nan = true
		}
		ix.ents = append(ix.ents, winEntry{k: k, pos: int32(p)})
	}
	ix.n = len(list)
	if ix.nan {
		return
	}
	tail := ix.ents[old:]
	slices.SortFunc(tail, func(a, b winEntry) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	if old == 0 || ix.ents[old-1].k <= tail[0].k {
		return
	}
	// Merge the sorted prefix (copied aside) with the sorted tail, front to
	// back in place: the write index never passes the tail's read index.
	ix.tmp = append(ix.tmp[:0], ix.ents[:old]...)
	i, j, w := 0, old, 0
	for i < len(ix.tmp) && j < len(ix.ents) {
		if ix.ents[j].k < ix.tmp[i].k {
			ix.ents[w] = ix.ents[j]
			j++
		} else {
			ix.ents[w] = ix.tmp[i]
			i++
		}
		w++
	}
	copy(ix.ents[w:], ix.tmp[i:])
}

// windowHits marks, in the slot's hit bitmap, the positions at or after
// from of (non-empty) list whose key lies in w's window around the slot's
// anchor, and returns the bitmap. It returns nil when the window or the
// index holds a NaN: the caller then scans the whole list.
func (e *engine) windowHits(w *slotWindow, sid, slot, from int, list []*grammar.Instance) []uint64 {
	lo, hi := w.bounds(&e.opt.Thresholds, e.children[w.anchor].Pos)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil
	}
	ix := &e.winIdx[sid*int(numWinKeys)+int(w.key)]
	ix.update(e.winEpoch, w.key, list)
	if ix.nan {
		return nil
	}
	nw := (len(list) + 63) >> 6
	bits := e.winHits[slot]
	if cap(bits) < nw {
		bits = make([]uint64, nw)
		e.winHits[slot] = bits
	}
	bits = bits[:nw]
	clear(bits)
	ents := ix.ents
	// First entry with k >= lo.
	a, b := 0, len(ents)
	for a < b {
		m := int(uint(a+b) >> 1)
		if ents[m].k < lo {
			a = m + 1
		} else {
			b = m
		}
	}
	for ; a < len(ents) && ents[a].k <= hi; a++ {
		if p := int(ents[a].pos); p >= from {
			bits[p>>6] |= 1 << (p & 63)
		}
	}
	return bits
}
