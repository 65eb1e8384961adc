package htmlparse

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"formext/internal/dataset"
)

// The benchmarks run over the Qam fixture (the amazon.com-style interface of
// the paper's Figure 3a), the page the allocation budget in
// TestColdExtractAllocationBudget is stated against.

func BenchmarkLexQam(b *testing.B) {
	src := []byte(dataset.QamHTML)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	var a Arena
	for i := 0; i < b.N; i++ {
		lx := newLexer(src, &a)
		for {
			tok := lx.next()
			if tok.kind == tokEOF {
				break
			}
		}
		a.Release()
	}
}

func BenchmarkDOMBuildQam(b *testing.B) {
	src := []byte(dataset.QamHTML)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	var a Arena
	for i := 0; i < b.N; i++ {
		ParseBytes(ctx, src, Limits{}, &a)
		a.Release()
	}
}

// BenchmarkDOMBuildPadded is BenchmarkDOMBuildQam on crawl-shaped pages:
// eight ~48 KB padded NewSource forms, one parse per iteration, so raw
// text, comments and wrapper markup weigh what they weigh in a crawl.
func BenchmarkDOMBuildPadded(b *testing.B) {
	pages := paddedPages(8)
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	b.SetBytes(int64(len(pages[0])))
	var a Arena
	for i := 0; i < b.N; i++ {
		ParseBytes(ctx, pages[i%len(pages)], Limits{}, &a)
		a.Release()
	}
}

// paddedPages returns n padded pages built around NewSource forms.
func paddedPages(n int) [][]byte {
	srcs := dataset.NewSource()
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = []byte(paddedPage(srcs[i%len(srcs)].HTML, i))
	}
	return pages
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

func BenchmarkDecodeEntities(b *testing.B) {
	const s = "Tom &amp; Jerry &lt;&#65;&gt; &copy; 2004 &ampersands &unknown; &#x2603;"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DecodeEntities(s)
	}
}
