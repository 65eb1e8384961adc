package formext_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"formext/internal/dataset"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/token"
)

// frontendGolden is one page's committed front-end fingerprint: a SHA-256
// over every field of every token, in order, and the render tree's box
// counts.
type frontendGolden struct {
	Tokens string          `json:"tokens"`
	Boxes  layout.BoxStats `json:"boxes"`
}

// frontendGoldenPages is the corpus the golden pins: the paper's fixtures,
// the NewSource interfaces, and 40 ~48 KB padded crawl pages (every other
// one with rendering site chrome ahead of the form).
func frontendGoldenPages() map[string]string {
	pages := map[string]string{
		"fixture-qam":     dataset.QamHTML,
		"fixture-qaa":     dataset.QaaHTML,
		"fixture-figure5": dataset.Figure5Fragment,
	}
	srcs := dataset.NewSource()
	for i, s := range srcs {
		pages[fmt.Sprintf("newsource-%02d", i)] = s.HTML
	}
	for i := 0; i < 40; i++ {
		lead := ""
		if i%2 == 1 {
			lead = siteChrome(i)
		}
		pages[fmt.Sprintf("padded-%02d", i)] = paddedPage(srcs[i%len(srcs)].HTML, lead, i)
	}
	return pages
}

// TestFrontendGolden pins the front end's output — lexer, tree builder,
// layout and tokenizer — byte for byte. Every page runs through one set of
// reused arenas, the production shape, so block recycling is covered too.
// A change meant to be output-neutral (a hot-path rewrite) must leave the
// file untouched; an intentional change regenerates it with
// go test -run TestFrontendGolden -update.
func TestFrontendGolden(t *testing.T) {
	pages := frontendGoldenPages()
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)

	var dom htmlparse.Arena
	var lay layout.Arena
	var tok token.Arena
	eng := layout.New()
	tz := token.NewTokenizer()
	ctx := context.Background()
	got := map[string]frontendGolden{}
	for _, name := range names {
		doc, _ := htmlparse.ParseBytes(ctx, []byte(pages[name]), htmlparse.Limits{}, &dom)
		root, err := eng.LayoutArena(ctx, doc, &lay)
		if err != nil {
			t.Fatalf("%s: layout: %v", name, err)
		}
		toks := tz.TokenizeArena(root, &tok)
		h := sha256.New()
		for _, tk := range toks {
			fmt.Fprintf(h, "%#v\n", *tk)
		}
		got[name] = frontendGolden{Tokens: hex.EncodeToString(h.Sum(nil)), Boxes: layout.StatsOf(root)}
		tok.Release()
		lay.Release()
		dom.Release()
	}

	path := filepath.Join("testdata", "frontend_golden.json")
	// The -update flag is registered by the package's golden-key test.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	var want map[string]frontendGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d pages, the corpus %d; regenerate with -update", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		if g := got[name]; g != w {
			t.Errorf("%s: front-end output drifted:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
