package layout

import (
	"context"
	"runtime"
	"testing"

	"formext/internal/dataset"
	"formext/internal/htmlparse"
)

// boxesEqual compares two render trees structurally: same kinds, nodes,
// text, rects and shape.
func boxesEqual(t *testing.T, path string, a, b *Box) {
	t.Helper()
	if a.Kind != b.Kind || a.Node != b.Node || a.Text != b.Text || a.Rect != b.Rect {
		t.Fatalf("%s: box differs:\n heap:  %v %q %v\n arena: %v %q %v",
			path, a.Kind, a.Text, a.Rect, b.Kind, b.Text, b.Rect)
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: child count %d vs %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		boxesEqual(t, path+"/"+a.Children[i].Kind.String(), a.Children[i], b.Children[i])
	}
}

// TestLayoutArenaIdentity: the arena-backed layout must produce a render
// tree identical to the heap-allocating path, box for box, over the whole
// fixture and generated corpus.
func TestLayoutArenaIdentity(t *testing.T) {
	corpus := []string{dataset.QamHTML, dataset.QaaHTML, dataset.Figure5Fragment}
	for _, src := range dataset.Generate(dataset.Config{
		Seed: 11, Sources: 25, Schemas: dataset.AllSchemas,
		MinConds: 1, MaxConds: 9, Hardness: 0.7, SampleSchemas: true,
	}) {
		corpus = append(corpus, src.HTML)
	}
	e := New()
	ctx := context.Background()
	var a Arena
	for i, src := range corpus {
		doc := htmlparse.Parse(src)
		heap, err1 := e.LayoutContext(ctx, doc)
		arena, err2 := e.LayoutArena(ctx, doc, &a)
		if err1 != nil || err2 != nil {
			t.Fatalf("source %d: unexpected errors %v / %v", i, err1, err2)
		}
		boxesEqual(t, "root", heap, arena)
		a.Release()
	}
}

// TestLayoutArenaReuse: an arena must stay correct when reused across many
// runs (block recycling, memo clearing, scratch truncation), and Release
// must keep its blocks: once warm, a run allocates a few small objects,
// never a box, pointer or text block again.
func TestLayoutArenaReuse(t *testing.T) {
	e := New()
	ctx := context.Background()
	doc := htmlparse.Parse(dataset.QamHTML)
	want, _ := e.LayoutContext(ctx, doc)
	var a Arena
	for i := 0; i < 5; i++ {
		got, err := e.LayoutArena(ctx, doc, &a)
		if err != nil {
			t.Fatal(err)
		}
		boxesEqual(t, "root", want, got)
		a.Release()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e.LayoutArena(ctx, doc, &a)
		a.Release()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1024 {
		t.Errorf("warm arena layout allocates %d bytes per run, want <= 1024", perRun)
	}
}
