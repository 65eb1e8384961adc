package token

import (
	"reflect"
	"testing"

	"formext/internal/dataset"
	"formext/internal/htmlparse"
	"formext/internal/layout"
)

// TestTokenizeArenaIdentity: the arena path must produce a token set equal
// field-for-field to the heap path over the fixture and generated corpus.
func TestTokenizeArenaIdentity(t *testing.T) {
	corpus := []string{dataset.QamHTML, dataset.QaaHTML, dataset.Figure5Fragment}
	for _, src := range dataset.Generate(dataset.Config{
		Seed: 13, Sources: 25, Schemas: dataset.AllSchemas,
		MinConds: 1, MaxConds: 9, Hardness: 0.7, SampleSchemas: true,
	}) {
		corpus = append(corpus, src.HTML)
	}
	tz := NewTokenizer()
	var a Arena
	for i, src := range corpus {
		root := layout.New().Layout(htmlparse.Parse(src))
		want := tz.Tokenize(root)
		got := tz.TokenizeArena(root, &a)
		if len(want) != len(got) {
			t.Fatalf("source %d: %d tokens heap vs %d arena", i, len(want), len(got))
		}
		for j := range want {
			if !reflect.DeepEqual(want[j], got[j]) {
				t.Fatalf("source %d token %d:\n heap:  %+v\n arena: %+v", i, j, want[j], got[j])
			}
		}
		a.Release()
	}
}

// FuzzTokenHandover: a token set the arena handed over must stay intact
// while the same arena tokenizes the next page over its recycled blocks,
// and must equal field for field what the arena-free path builds. Page A
// is tokenized through the arena, page B next on the same arena, and only
// then is A's token set compared.
func FuzzTokenHandover(f *testing.F) {
	seeds := append([]string{dataset.QamHTML, dataset.QaaHTML}, dataset.FuzzSeeds...)
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
	}
	tz := NewTokenizer()
	eng := layout.New()
	var arena Arena
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 1<<14 || len(b) > 1<<14 {
			return
		}
		rootA := eng.Layout(htmlparse.Parse(a))
		got := tz.TokenizeArena(rootA, &arena)
		tz.TokenizeArena(eng.Layout(htmlparse.Parse(b)), &arena)
		want := tz.Tokenize(rootA)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("handed-over tokens changed by the next page:\n got:  %v\n want: %v", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("handed-over token slice has len %d, cap %d", len(got), cap(got))
		}
	})
}
