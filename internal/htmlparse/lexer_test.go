package htmlparse

import (
	"reflect"
	"testing"
)

func collect(src string) []lexToken {
	lx := newLexer([]byte(src), nil)
	var toks []lexToken
	for {
		t := lx.next()
		if t.kind == tokEOF {
			return toks
		}
		toks = append(toks, *t)
	}
}

func TestLexSimpleTag(t *testing.T) {
	toks := collect(`<input type="text" name=author size=30>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens, want 1", len(toks))
	}
	tok := toks[0]
	if tok.kind != tokStartTag || tok.data != "input" {
		t.Fatalf("got %+v, want input start tag", tok)
	}
	want := []Attr{{"type", "text"}, {"name", "author"}, {"size", "30"}}
	if !reflect.DeepEqual(tok.attrs, want) {
		t.Errorf("attrs = %v, want %v", tok.attrs, want)
	}
}

func TestLexCaseFolding(t *testing.T) {
	toks := collect(`<INPUT TYPE="RADIO" Name='x'>`)
	tok := toks[0]
	if tok.data != "input" {
		t.Errorf("tag = %q, want input", tok.data)
	}
	if tok.attrs[0].Name != "type" || tok.attrs[0].Value != "RADIO" {
		t.Errorf("attr 0 = %v; names fold, values do not", tok.attrs[0])
	}
	if tok.attrs[1].Name != "name" || tok.attrs[1].Value != "x" {
		t.Errorf("attr 1 = %v", tok.attrs[1])
	}
}

func TestLexBooleanAndUnquotedAttrs(t *testing.T) {
	toks := collect(`<input type=checkbox checked value=yes/no>`)
	tok := toks[0]
	want := []Attr{{"type", "checkbox"}, {"checked", ""}, {"value", "yes/no"}}
	if !reflect.DeepEqual(tok.attrs, want) {
		t.Errorf("attrs = %v, want %v", tok.attrs, want)
	}
}

func TestLexSelfClosing(t *testing.T) {
	toks := collect(`<br/><img src="x.gif" />`)
	if !toks[0].selfClosing || toks[0].data != "br" {
		t.Errorf("tok 0 = %+v", toks[0])
	}
	if !toks[1].selfClosing || toks[1].data != "img" {
		t.Errorf("tok 1 = %+v", toks[1])
	}
	if toks[1].attrs[0] != (Attr{"src", "x.gif"}) {
		t.Errorf("img attrs = %v", toks[1].attrs)
	}
}

func TestLexEndTag(t *testing.T) {
	toks := collect(`</td ><//junk>`)
	if toks[0].kind != tokEndTag || toks[0].data != "td" {
		t.Errorf("tok 0 = %+v, want end td", toks[0])
	}
}

func TestLexTextAndEntities(t *testing.T) {
	toks := collect(`Price &lt; 20 &amp; up&nbsp;to&#32;50`)
	if len(toks) != 1 || toks[0].kind != tokText {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[0].data != "Price < 20 & up to 50" {
		t.Errorf("text = %q", toks[0].data)
	}
}

func TestLexComment(t *testing.T) {
	toks := collect(`a<!-- hidden <input> -->b`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	if toks[1].kind != tokComment || toks[1].data != " hidden <input> " {
		t.Errorf("comment = %+v", toks[1])
	}
	if toks[0].data != "a" || toks[2].data != "b" {
		t.Errorf("surrounding text wrong: %+v", toks)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	toks := collect(`x<!-- never closed`)
	if len(toks) != 2 || toks[1].kind != tokComment {
		t.Fatalf("toks = %+v", toks)
	}
}

func TestLexDoctype(t *testing.T) {
	toks := collect(`<!DOCTYPE html><p>hi`)
	if toks[0].kind != tokDoctype {
		t.Errorf("tok 0 = %+v, want doctype", toks[0])
	}
	if toks[1].kind != tokStartTag || toks[1].data != "p" {
		t.Errorf("tok 1 = %+v", toks[1])
	}
}

func TestLexRawText(t *testing.T) {
	toks := collect(`<script>if (a < b) { x("</div>"); }</script><p>after`)
	if toks[0].data != "script" {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[1].kind != tokText {
		t.Fatalf("tok 1 = %+v, want raw text", toks[1])
	}
	// Raw text stops at the real closing tag; the string inside contains
	// "</div>" which must NOT terminate the script.
	if toks[1].data != `if (a < b) { x("` {
		// The lexer stops at the first "</script"; "</div>" inside the string
		// is not a script terminator, so the raw text runs to </script>.
		t.Logf("raw = %q", toks[1].data)
	}
	if toks[1].data != `if (a < b) { x("</div>"); }` {
		t.Errorf("raw = %q, want full script body", toks[1].data)
	}
	if toks[2].kind != tokEndTag || toks[2].data != "script" {
		t.Errorf("tok 2 = %+v", toks[2])
	}
}

func TestLexTextarea(t *testing.T) {
	toks := collect(`<textarea name=c>default <b>text</textarea>`)
	if toks[1].kind != tokText || toks[1].data != "default <b>text" {
		t.Errorf("textarea content = %+v", toks[1])
	}
}

func TestLexStrayLessThan(t *testing.T) {
	toks := collect(`5 < 10 items`)
	var text string
	for _, tok := range toks {
		if tok.kind != tokText {
			t.Fatalf("unexpected token %+v", tok)
		}
		text += tok.data
	}
	if text != "5 < 10 items" {
		t.Errorf("text = %q", text)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"no entities", "no entities"},
		{"&amp;", "&"},
		{"&amp", "&"},
		{"a&lt;b&gt;c", "a<b>c"},
		{"&quot;q&quot;", `"q"`},
		{"&#65;&#x42;&#X43;", "ABC"},
		{"&nbsp;", " "},
		{"&bogus;", "&bogus;"},
		{"&", "&"},
		{"&#;", "&#;"},
		{"&#xZZ;", "&#xZZ;"},
		{"tom &amp; jerry", "tom & jerry"},
		{"&copy;2004", "©2004"},
		{"&euro;10&ndash;&euro;20", "€10–€20"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
