package core

import (
	"math"
	"math/rand"
	"testing"

	"formext/internal/geom"
	"formext/internal/grammar"
)

// TestWindowsOfShapes pins the planner: which slot each adjacency factor
// windows, on which coordinates, and in which direction.
func TestWindowsOfShapes(t *testing.T) {
	g, err := grammar.ParseDSL(`
terminals text, textbox, checkbox;
start S;
prod F S -> a:text b:textbox : above(a, b);
prod B S -> a:text b:textbox : below(a, b);
prod L S -> a:text b:textbox : width(a) > 0 && left(b, a);
prod R S -> a:text b:textbox : right(a, b);
prod T S -> a:text b:textbox c:checkbox : left(a, b) && below(c, a) && above(b, c);
prod N S -> a:text b:textbox : left(a, b) || above(a, b);
prod U S -> a:text b:textbox : samerow(a, b);
`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]slotWindow{
		"F": {{}, {on: true, anchor: 0, anchorAt: keyY2, key: keyY1, vertical: true, forward: true}},
		"B": {{}, {on: true, anchor: 0, anchorAt: keyY1, key: keyY2, vertical: true}},
		"L": {{}, {on: true, anchor: 0, anchorAt: keyX1, key: keyX2}},
		"R": {{}, {on: true, anchor: 0, anchorAt: keyX1, key: keyX2}},
		"T": {{},
			{on: true, anchor: 0, anchorAt: keyX2, key: keyX1, forward: true},
			{on: true, anchor: 0, anchorAt: keyY2, key: keyY1, vertical: true, forward: true}},
		"N": nil,
		"U": nil,
	}
	for _, p := range g.Prods {
		got := windowsOf(p)
		w := want[p.Name]
		if len(got) != len(w) {
			t.Errorf("%s: windows %+v, want %+v", p.Name, got, w)
			continue
		}
		for i := range got {
			if got[i] != w[i] {
				t.Errorf("%s slot %d: window %+v, want %+v", p.Name, i, got[i], w[i])
			}
		}
	}
}

// TestWindowBoundsSuperset checks the window arithmetic against the
// relations themselves at the edges: for random anchors and thresholds,
// every coordinate at or one ulp around the window's nominal bounds that
// the relation accepts must lie inside the returned window. Fractional
// anchors of large magnitude make the relation's own rounding differ from
// the bound's, which is what the slack absorbs.
func TestWindowBoundsSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []slotWindow{
		{on: true, anchorAt: keyY2, key: keyY1, vertical: true, forward: true},
		{on: true, anchorAt: keyY1, key: keyY2, vertical: true},
		{on: true, anchorAt: keyX2, key: keyX1, forward: true},
		{on: true, anchorAt: keyX1, key: keyX2},
	}
	rounding := 0
	for i := 0; i < 50000; i++ {
		mag := math.Pow(10, float64(rng.Intn(13)))
		c := (rng.Float64() - 0.3) * mag
		th := geom.Thresholds{
			MaxHGap:  rng.Float64() * 300,
			MaxVGap:  rng.Float64() * 60,
			AlignTol: (rng.Float64() - 0.2) * 10,
		}
		for _, w := range shapes {
			gap := th.MaxHGap
			if w.vertical {
				gap = th.MaxVGap
			}
			lo, hi := w.bounds(&th, rectWith(w.anchorAt, c))
			edges := []float64{c - th.AlignTol, c + gap}
			if !w.forward {
				edges = []float64{c - gap, c + th.AlignTol}
			}
			for _, e := range edges {
				for _, b := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
					if !relationHolds(&th, w, c, b) {
						continue
					}
					if b < lo || b > hi {
						t.Fatalf("window %+v under %+v: anchor %v accepts %v outside [%v, %v]", w, th, c, b, lo, hi)
					}
					if b < edges[0] || b > edges[1] {
						rounding++
					}
				}
			}
		}
	}
	t.Logf("%d accepted coordinates lay outside the unwidened window", rounding)
}

// rectWith returns a rectangle whose coordinate k is v, with the other
// coordinates placed so the relations' perpendicular tests pass.
func rectWith(k winKey, v float64) geom.Rect {
	r := geom.R(0, 10, 0, 10)
	switch k {
	case keyX1:
		r.X1 = v
	case keyX2:
		r.X2 = v
	case keyY1:
		r.Y1 = v
	case keyY2:
		r.Y2 = v
	}
	return r
}

// relationHolds evaluates the relation window w stands for, with the
// anchor's coordinate at c and the windowed candidate's at b.
func relationHolds(th *geom.Thresholds, w slotWindow, c, b float64) bool {
	anchor, cand := rectWith(w.anchorAt, c), rectWith(w.key, b)
	p, q := anchor, cand
	if !w.forward {
		p, q = cand, anchor
	}
	if w.vertical {
		return th.Above(p, q)
	}
	return th.Left(p, q)
}
