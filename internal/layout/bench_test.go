package layout

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"formext/internal/dataset"
	"formext/internal/htmlparse"
)

func BenchmarkLayoutQam(b *testing.B) {
	doc := htmlparse.Parse(dataset.QamHTML)
	e := New()
	ctx := context.Background()
	b.ReportAllocs()
	var a Arena
	for i := 0; i < b.N; i++ {
		e.LayoutArena(ctx, doc, &a)
		a.Release()
	}
}

func BenchmarkLayoutQamNoArena(b *testing.B) {
	doc := htmlparse.Parse(dataset.QamHTML)
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Layout(doc)
	}
}

// BenchmarkLayoutPadded is BenchmarkLayoutQam on crawl-shaped pages: eight
// ~48 KB padded NewSource forms, parsed once up front and laid out one per
// iteration, so the skipped head and the empty wrapper markup a crawl
// carries are classified as often as they are there.
func BenchmarkLayoutPadded(b *testing.B) {
	srcs := dataset.NewSource()
	docs := make([]*htmlparse.Node, 8)
	for i := range docs {
		docs[i] = htmlparse.Parse(paddedPage(srcs[i%len(srcs)].HTML, i))
	}
	e := New()
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	var a Arena
	for i := 0; i < b.N; i++ {
		e.LayoutArena(ctx, docs[i%len(docs)], &a)
		a.Release()
	}
}

// paddedPage wraps form in ~48 KB of page weight, the shape a crawler
// fetches: a head of style sheets and scripts (raw text the lexer must scan
// for its closing tag), empty wrapper markup and comments around the form.
// It mirrors the root package's crawl-page builder; seq makes pages
// byte-distinct.
func paddedPage(form string, seq int) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(form, "<html><body>"), "</body></html>")
	var b strings.Builder
	b.WriteString("<html><head><title>Search</title><style>")
	for i := 0; b.Len() < 10_000; i++ {
		fmt.Fprintf(&b, ".c%d .x%d{margin:%dpx;color:#%06x}\n", i%900, i%90, i%40, (i*7919)%(1<<24))
	}
	b.WriteString("</style><script>")
	for i := 0; b.Len() < 20_000; i++ {
		fmt.Fprintf(&b, "var v%d=document.getElementById('n%d');if(v%d){v%d.className='s%d';}\n", i, i, i, i, i%50)
	}
	fmt.Fprintf(&b, "</script></head><body><!-- page %d -->", seq)
	for i := 0; b.Len() < 34_000; i++ {
		fmt.Fprintf(&b, `<div class="row r%d"><div class="col"></div><div id="ad%d"><span></span></div></div>`, i%99, i)
	}
	b.WriteString(`<div class="main"><div class="content">`)
	b.WriteString(inner)
	b.WriteString("</div></div>")
	for i := 0; b.Len() < 48_000; i++ {
		fmt.Fprintf(&b, `<!-- region %d --><div class="nav n%d"><ul class="m%d"></ul></div>`, i, i%99, i%97)
	}
	b.WriteString("</body></html>")
	return b.String()
}
