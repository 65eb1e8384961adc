package formext

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// Cluster routing stands on one property: every process — built separately,
// on any machine — derives byte-identical cache keys for the same (page,
// grammar, options). The consistent-hash ring is a pure function of those
// keys, so if key derivation drifts between builds, peers disagree about
// ownership and the sharded tier silently degenerates into N independent
// caches. This test pins the grammar fingerprint and the full key derivation
// against committed goldens; any intentional change to either must ship with
// a regenerated golden file (go test -run TestGoldenKeys -update) and is
// thereby visible in review as the fleet-wide cache flush it is.

// goldenKeys is the committed shape: the default grammar's fingerprint and,
// per option variant, the hex ExtractKey of each corpus page.
type goldenKeys struct {
	GrammarFingerprint string                       `json:"grammarFingerprint"`
	Variants           map[string]map[string]string `json:"variants"`
}

// goldenCorpus is deliberately literal: generated pages would tie the
// goldens to the generator's evolution, which is beside the point.
var goldenCorpus = map[string]string{
	"simple-text": `<form action="/s">Title <input type="text" name="t" size="30"></form>`,
	"select-row": `<form action="/s"><table>
	<tr><td>Author</td><td><input type="text" name="a" size="30"></td></tr>
	<tr><td>Format</td><td><select name="f"><option>Hard</option><option>Soft</option></select></td></tr>
	</table></form>`,
	"radio-group": `<form>Match: <input type="radio" name="m" value="all" checked>All
	<input type="radio" name="m" value="any">Any <input type="submit"></form>`,
	"empty-form": `<form action="/s"></form>`,
	"no-form":    `<p>nothing to extract</p>`,
	"unicode":    `<form>Prix maximal (€) <input type="text" name="prix"></form>`,
}

// goldenVariants covers the options that participate in the key prefix —
// including pairs that must resolve identically (explicit defaults).
var goldenVariants = map[string]Options{
	"default":        {},
	"explicit-dflt":  {Viewport: 800, MaxDepth: DefaultMaxDepth},
	"prefs-off":      {DisablePreferences: true},
	"viewport-1024":  {Viewport: 1024},
	"interpreted":    {InterpretedEval: true},
	"budgeted":       {ParseBudget: time.Second},
	"depth-capped-8": {MaxDepth: 8},
}

func TestGoldenKeysStableAcrossBuilds(t *testing.T) {
	got := goldenKeys{Variants: map[string]map[string]string{}}
	for vname, opts := range goldenVariants {
		ex, err := New(opts)
		if err != nil {
			t.Fatalf("variant %s: %v", vname, err)
		}
		keys := map[string]string{}
		for pname, page := range goldenCorpus {
			k := ex.ExtractKey(page)
			keys[pname] = hex.EncodeToString(k[:])
		}
		got.Variants[vname] = keys
	}
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	got.GrammarFingerprint = ex.Grammar().Fingerprint()

	path := filepath.Join("testdata", "golden_keys.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	var want goldenKeys
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.GrammarFingerprint != want.GrammarFingerprint {
		t.Errorf("grammar fingerprint drifted:\n got %s\nwant %s\n(an intentional grammar change must regenerate the golden: it flushes every fleet cache)",
			got.GrammarFingerprint, want.GrammarFingerprint)
	}
	for vname, wantKeys := range want.Variants {
		gotKeys, ok := got.Variants[vname]
		if !ok {
			t.Errorf("variant %s missing from current build", vname)
			continue
		}
		for pname, wantHex := range wantKeys {
			if gotKeys[pname] != wantHex {
				t.Errorf("key drifted: variant %s page %s\n got %s\nwant %s", vname, pname, gotKeys[pname], wantHex)
			}
		}
	}
	for vname := range got.Variants {
		if _, ok := want.Variants[vname]; !ok {
			t.Errorf("variant %s not in golden file; regenerate with -update", vname)
		}
	}
}

// TestGoldenKeySemantics pins the intent around the goldens: resolved
// defaults collapse onto one key, and everything that should change the key
// does.
func TestGoldenKeySemantics(t *testing.T) {
	ex := func(o Options) *Extractor {
		e, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	page := goldenCorpus["simple-text"]

	// Explicitly spelling the defaults is the same configuration.
	if a, b := ex(Options{}).ExtractKey(page), ex(Options{Viewport: 800, MaxDepth: DefaultMaxDepth}).ExtractKey(page); a != b {
		t.Error("explicit default options derive a different key than zero options")
	}
	// Observability must not shard: a traced and an untraced process serve
	// each other's keys.
	tracer := NewTracer(NewRingSink(4))
	if a, b := ex(Options{}).ExtractKey(page), ex(Options{Tracer: tracer}).ExtractKey(page); a != b {
		t.Error("tracer participates in the key; traced and untraced fleets would not share")
	}
	// Result-changing options shard; so does the page itself.
	if a, b := ex(Options{}).ExtractKey(page), ex(Options{DisablePreferences: true}).ExtractKey(page); a == b {
		t.Error("DisablePreferences does not change the key")
	}
	if a, b := ex(Options{}).ExtractKey(page), ex(Options{}).ExtractKey(page+" "); a == b {
		t.Error("distinct pages derive the same key")
	}
}
