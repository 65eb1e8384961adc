package formext_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"formext"
	"formext/internal/dataset"
)

// paddedPage wraps form in ~48 KB of page weight, the shape a crawler
// fetches: a head of style sheets and scripts, empty wrapper markup and
// comments around the form, and a hidden field in it. None of the padding
// renders a token. lead is extra markup placed ahead of the wrappers; seq
// makes pages byte-distinct.
func paddedPage(form, lead string, seq int) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(form, "<html><body>"), "</body></html>")
	if i := strings.Index(inner, "<form"); i >= 0 {
		j := i + strings.IndexByte(inner[i:], '>') + 1
		inner = inner[:j] + fmt.Sprintf(`<input type="hidden" name="ref" value="crawl-%d">`, seq) + inner[j:]
	}
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
	b.WriteString(lead)
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

// siteChrome is paddedPage lead markup that does render: a site-search
// form with its own hidden field, a select with option values, a label-for
// pair and an image button, then a navigation bar of links (one with an
// entity, so its text is decoded into the DOM arena) and a logo image.
func siteChrome(seq int) string {
	return fmt.Sprintf(`<form action="/site-search?p=%d" method="post"><input type="hidden" name="sid" value="s%d">`+
		`<label for="kw%d">Site search</label> <input type="text" name="kw" id="kw%d">`+
		`<select name="scope"><option value="all-%d">All</option><option>Books</option></select>`+
		`<input type="image" alt="Go" src="go.png"></form>`+
		`<div class="nav"><a href="/home?p=%d">Home</a> <a href="/terms">Terms &amp; Conditions</a> `+
		`<img src="logo.png" alt="Logo %d"></div>`, seq, seq, seq, seq, seq, seq, seq)
}

// resultRecord renders everything a Result exposes: the model as JSON,
// every token field, the submission envelope and every tree's dump.
func resultRecord(t *testing.T, res *formext.Result) string {
	t.Helper()
	var b strings.Builder
	model, err := json.Marshal(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(model)
	for _, tok := range res.Tokens {
		fmt.Fprintf(&b, "\n%#v", *tok)
	}
	fmt.Fprintf(&b, "\n%#v", res.Form)
	for _, tr := range res.Trees {
		b.WriteString("\n")
		b.WriteString(tr.Dump())
	}
	return b.String()
}

// TestResultsOutliveTheirSource is the guard behind recycling the DOM and
// layout arenas: a Result must own every string it exposes. Each page is
// extracted from a private buffer and recorded; the buffer is then
// overwritten with junk and two dozen other pages run through the same
// extractor, reusing the pooled DOM and layout blocks the first page was
// parsed into. The recorded output must not change — a token, envelope or
// model string still pointing into the DOM, the render text or the page
// bytes would now read junk or another page's text.
func TestResultsOutliveTheirSource(t *testing.T) {
	pages := []string{dataset.QamHTML, dataset.QaaHTML, dataset.Figure5Fragment,
		paddedPage(dataset.QamHTML, siteChrome(1), 1), paddedPage(dataset.QaaHTML, siteChrome(2), 2)}
	var others []string
	for i, s := range dataset.NewSource() {
		if i%2 == 0 {
			others = append(others, paddedPage(s.HTML, "", 100+i))
		} else {
			others = append(others, s.HTML)
		}
	}
	if len(others) < 20 {
		t.Fatalf("need at least 20 other pages, have %d", len(others))
	}
	ctx := context.Background()
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			var opts formext.Options
			if cached {
				c, err := formext.NewCache(formext.CacheConfig{MaxBytes: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				opts.Cache = c
			}
			ex, err := formext.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, page := range pages {
				buf := []byte(page)
				res, err := ex.ExtractBytes(ctx, buf)
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				if len(res.Tokens) == 0 || res.Model == nil {
					t.Fatalf("page %d: empty extraction", i)
				}
				want := resultRecord(t, res)
				for j := range buf {
					buf[j] = "#<>=\"x"[j%6]
				}
				for _, other := range others {
					if _, err := ex.ExtractBytes(ctx, []byte(other)); err != nil {
						t.Fatalf("other page: %v", err)
					}
				}
				if got := resultRecord(t, res); got != want {
					t.Errorf("page %d: result changed after its buffer and arenas were reused:\n got: %.600s\nwant: %.600s", i, got, want)
				}
			}
		})
	}
}
