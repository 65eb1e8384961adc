package htmlparse

import (
	"strconv"
	"strings"
	"testing"

	"formext/internal/dataset"
)

// This file preserves the pre-arena string lexer verbatim (identifiers
// prefixed ref) as an executable specification: the zero-copy byte lexer
// must emit a token-for-token identical stream. The differential test runs
// the two over the fixture corpus, the generated dataset and the fuzz
// seeds; the fuzz target extends that to arbitrary ASCII input. Non-ASCII
// input is masked from the fuzz comparison because the byte lexer's raw-
// text close-tag search folds ASCII case in place, which deliberately
// diverges from ToLower-the-remainder on characters whose Unicode lower-
// casing changes byte length (e.g. U+0130).

type refLexer struct {
	src    string
	pos    int
	rawTag string
}

func newRefLexer(src string) *refLexer { return &refLexer{src: src} }

func (l *refLexer) next() lexToken {
	if l.pos >= len(l.src) {
		return lexToken{kind: tokEOF}
	}
	if l.rawTag != "" {
		return l.lexRawText()
	}
	if l.src[l.pos] == '<' {
		if tok, ok := l.lexMarkup(); ok {
			return tok
		}
		l.pos++
		return lexToken{kind: tokText, data: "<"}
	}
	return l.lexText()
}

func (l *refLexer) lexText() lexToken {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '<' {
		l.pos++
	}
	return lexToken{kind: tokText, data: refDecodeEntities(l.src[start:l.pos])}
}

func (l *refLexer) lexRawText() lexToken {
	closing := "</" + l.rawTag
	lower := strings.ToLower(l.src[l.pos:])
	idx := strings.Index(lower, closing)
	var content string
	if idx < 0 {
		content = l.src[l.pos:]
		l.pos = len(l.src)
	} else {
		content = l.src[l.pos : l.pos+idx]
		l.pos += idx
	}
	l.rawTag = ""
	if content == "" {
		return l.next()
	}
	return lexToken{kind: tokText, data: content}
}

func (l *refLexer) lexMarkup() (lexToken, bool) {
	src, p := l.src, l.pos
	if p+1 >= len(src) {
		return lexToken{}, false
	}
	switch {
	case strings.HasPrefix(src[p:], "<!--"):
		return l.lexComment(), true
	case src[p+1] == '!' || src[p+1] == '?':
		return l.lexDeclaration(), true
	case src[p+1] == '/':
		return l.lexEndTag()
	default:
		return l.lexStartTag()
	}
}

func (l *refLexer) lexComment() lexToken {
	l.pos += 4
	end := strings.Index(l.src[l.pos:], "-->")
	var body string
	if end < 0 {
		body = l.src[l.pos:]
		l.pos = len(l.src)
	} else {
		body = l.src[l.pos : l.pos+end]
		l.pos += end + 3
	}
	return lexToken{kind: tokComment, data: body}
}

func (l *refLexer) lexDeclaration() lexToken {
	end := strings.IndexByte(l.src[l.pos:], '>')
	if end < 0 {
		l.pos = len(l.src)
	} else {
		l.pos += end + 1
	}
	return lexToken{kind: tokDoctype}
}

func (l *refLexer) lexEndTag() (lexToken, bool) {
	p := l.pos + 2
	start := p
	for p < len(l.src) && isTagNameByte(l.src[p]) {
		p++
	}
	if p == start {
		return lexToken{}, false
	}
	name := strings.ToLower(l.src[start:p])
	for p < len(l.src) && l.src[p] != '>' {
		p++
	}
	if p < len(l.src) {
		p++
	}
	l.pos = p
	return lexToken{kind: tokEndTag, data: name}, true
}

func (l *refLexer) lexStartTag() (lexToken, bool) {
	p := l.pos + 1
	start := p
	for p < len(l.src) && isTagNameByte(l.src[p]) {
		p++
	}
	if p == start {
		return lexToken{}, false
	}
	tok := lexToken{kind: tokStartTag, data: strings.ToLower(l.src[start:p])}
	for {
		p = refSkipSpace(l.src, p)
		if p >= len(l.src) {
			break
		}
		if l.src[p] == '>' {
			p++
			break
		}
		if l.src[p] == '/' {
			p++
			if p < len(l.src) && l.src[p] == '>' {
				tok.selfClosing = true
				p++
				break
			}
			continue
		}
		var attr Attr
		attr, p = refLexAttr(l.src, p)
		if attr.Name == "" {
			p++
			continue
		}
		tok.attrs = append(tok.attrs, attr)
	}
	l.pos = p
	if isRawTextTag(tok.data) && !tok.selfClosing {
		l.rawTag = tok.data
	}
	return tok, true
}

func refLexAttr(src string, p int) (Attr, int) {
	start := p
	for p < len(src) && isAttrNameByte(src[p]) {
		p++
	}
	if p == start {
		return Attr{}, p
	}
	attr := Attr{Name: strings.ToLower(src[start:p])}
	p = refSkipSpace(src, p)
	if p >= len(src) || src[p] != '=' {
		return attr, p
	}
	p = refSkipSpace(src, p+1)
	if p >= len(src) {
		return attr, p
	}
	switch src[p] {
	case '"', '\'':
		quote := src[p]
		p++
		vstart := p
		for p < len(src) && src[p] != quote {
			p++
		}
		attr.Value = refDecodeEntities(src[vstart:p])
		if p < len(src) {
			p++
		}
	default:
		vstart := p
		for p < len(src) && !isSpaceByte(src[p]) && src[p] != '>' {
			p++
		}
		attr.Value = refDecodeEntities(src[vstart:p])
	}
	return attr, p
}

func refSkipSpace(src string, p int) int {
	for p < len(src) && isSpaceByte(src[p]) {
		p++
	}
	return p
}

// refNamedEntities is the original rune-valued table.
var refNamedEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™', "hellip": '…',
	"mdash": '—', "ndash": '–', "lsquo": '‘', "rsquo": '’', "ldquo": '“',
	"rdquo": '”', "laquo": '«', "raquo": '»', "middot": '·', "bull": '•',
	"deg": '°', "plusmn": '±', "frac12": '½', "frac14": '¼', "times": '×',
	"divide": '÷', "cent": '¢', "pound": '£', "euro": '€', "yen": '¥',
	"sect": '§', "para": '¶', "dagger": '†', "larr": '←', "uarr": '↑',
	"rarr": '→', "darr": '↓',
}

func refDecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	s = s[amp:]
	for len(s) > 0 {
		if s[0] != '&' {
			next := strings.IndexByte(s, '&')
			if next < 0 {
				b.WriteString(s)
				break
			}
			b.WriteString(s[:next])
			s = s[next:]
			continue
		}
		r, consumed := refDecodeOne(s)
		if consumed == 0 {
			b.WriteByte('&')
			s = s[1:]
			continue
		}
		b.WriteString(r)
		s = s[consumed:]
	}
	return b.String()
}

func refDecodeOne(s string) (string, int) {
	if len(s) < 2 {
		return "", 0
	}
	if s[1] == '#' {
		return refDecodeNumeric(s)
	}
	i := 1
	for i < len(s) && i < 32 && isAlnum(s[i]) {
		i++
	}
	name := s[1:i]
	hasSemi := i < len(s) && s[i] == ';'
	if r, ok := refNamedEntities[name]; ok {
		if hasSemi {
			return string(r), i + 1
		}
		switch name {
		case "amp", "lt", "gt", "quot", "nbsp", "copy", "reg":
			return string(r), i
		}
	}
	for j := i; j > 1; j-- {
		if r, ok := refNamedEntities[s[1:j]]; ok && !hasSemi {
			switch s[1:j] {
			case "amp", "lt", "gt", "quot", "nbsp":
				return string(r), j
			}
			_ = r
		}
	}
	return "", 0
}

func refDecodeNumeric(s string) (string, int) {
	i := 2
	base := 10
	if i < len(s) && (s[i] == 'x' || s[i] == 'X') {
		base = 16
		i++
	}
	start := i
	for i < len(s) && i-start < 8 && isBaseDigit(s[i], base) {
		i++
	}
	if i == start {
		return "", 0
	}
	v, err := strconv.ParseInt(s[start:i], base, 32)
	if err != nil || v <= 0 || v > 0x10FFFF {
		return "", 0
	}
	if i < len(s) && s[i] == ';' {
		i++
	}
	return string(rune(v)), i
}

// diffLexers runs both lexers over src and reports the first divergence.
func diffLexers(t *testing.T, src string) {
	t.Helper()
	ref := newRefLexer(src)
	// Exercise the arena path: that is the configuration production uses.
	var a Arena
	defer a.Release()
	lx := newLexer([]byte(src), &a)
	for i := 0; ; i++ {
		want := ref.next()
		got := lx.next()
		if want.kind != got.kind || want.data != got.data ||
			want.selfClosing != got.selfClosing || len(want.attrs) != len(got.attrs) {
			t.Fatalf("token %d diverges:\n ref: %+v\n got: %+v\n src: %q", i, want, got, src)
		}
		for j := range want.attrs {
			if want.attrs[j] != got.attrs[j] {
				t.Fatalf("token %d attr %d diverges: ref %+v got %+v in %q",
					i, j, want.attrs[j], got.attrs[j], src)
			}
		}
		if want.kind == tokEOF {
			return
		}
	}
}

// lexerCorpus collects every HTML source the repo ships or generates.
func lexerCorpus() []string {
	corpus := []string{
		dataset.QamHTML,
		dataset.QaaHTML,
		dataset.Figure5Fragment,
	}
	for _, src := range dataset.Generate(dataset.Config{
		Seed: 7, Sources: 40, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: 9, Hardness: 0.6, SampleSchemas: true,
	}) {
		corpus = append(corpus, src.HTML)
	}
	return corpus
}

func TestLexerDifferential(t *testing.T) {
	for _, src := range lexerCorpus() {
		diffLexers(t, src)
	}
	// The FuzzParse seed list doubles as a corpus of deliberately broken
	// markup.
	seeds := []string{
		"",
		"<form><table><tr><td>Author</td><td><input type=text></td></tr></table></form>",
		"<select><option>a<option>b</select>",
		"<<>><table><td><table></tr></table>",
		"<!doctype html><!-- c --><p>x<p>y",
		"<script>if(a<b){}</script>",
		"<a href='x>y'>z</a>&amp&#x41;&bogus;",
		"<input type=\"radio\" name='n' checked value=v/>text",
		"<TEXTAREA>raw </div> inside</TEXTAREA>",
		"<style>b{color:red}</style",
		"<p unterminated",
		"<br/><img src=x.gif />&copy;2004&euro;10",
		"<LongCustomElementNameThatIsNotInterned attr=v>x</LongCustomElementNameThatIsNotInterned>",
	}
	for _, src := range seeds {
		diffLexers(t, src)
	}
	for _, src := range lexerEdgeCases {
		diffLexers(t, src)
	}
	// Crawl-shaped pages: long raw-text heads, comments and wrapper markup.
	for _, page := range paddedPages(4) {
		diffLexers(t, string(page))
	}
}

// lexerEdgeCases are the boundaries of the lexer's IndexByte scans: input
// ending at a '<', at a partial close tag inside raw text, inside raw text
// with no close tag, or inside a quoted attribute value.
var lexerEdgeCases = []string{
	"<",
	"text<",
	"<p>a<",
	"<script>x</",
	"<script>x</scr",
	"<script>x</SCRIPT",
	"<style>a<b</STYLE",
	"<script>var a = 1; if (a<2) {}",
	"<title>no close",
	"<textarea>",
	"<script></script>",
	"<script></script>after",
	"<TEXTAREA></textarea><p>",
	"<textarea>x</textareax>y",
	`<input value="abc`,
	`<a href='x`,
	`<p a="`,
	`<p a='v' b="`,
}

func FuzzLexerDifferential(f *testing.F) {
	f.Add(dataset.Figure5Fragment)
	f.Add("<script>x</scrIPT><p a=1 b='2' c=\"3\">&amp;&#65;")
	f.Add("<td><!-- c --><input checked>")
	for _, src := range lexerEdgeCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		for i := 0; i < len(src); i++ {
			if src[i] >= 0x80 {
				// Masked: raw-text scanning deliberately diverges on
				// length-changing Unicode case mappings.
				return
			}
		}
		diffLexers(t, src)
	})
}

// FuzzInternName: interning must agree with strings.ToLower on every input
// and must never alias distinct names to one string.
func FuzzInternName(f *testing.F) {
	f.Add("DIV", "input")
	f.Add("SELECT", "sElEcT")
	f.Add("x-custom-tag", "HTTP-EQUIV")
	f.Add("aVeryLongTagNameExceedingTheInternBuffer", "p")
	f.Fuzz(func(t *testing.T, an, bn string) {
		if len(an) > 1<<10 || len(bn) > 1<<10 {
			return
		}
		var arena Arena
		defer arena.Release()
		text := arena.textBytes()
		ga, _ := internName([]byte(an), text)
		gb, _ := internName([]byte(bn), text)
		wa, wb := strings.ToLower(an), strings.ToLower(bn)
		if ga != wa {
			t.Fatalf("internName(%q) = %q, want %q", an, ga, wa)
		}
		if gb != wb {
			t.Fatalf("internName(%q) = %q, want %q", bn, gb, wb)
		}
		if (wa == wb) != (ga == gb) {
			t.Fatalf("aliasing broken: %q/%q fold to %q/%q but interned %q/%q",
				an, bn, wa, wb, ga, gb)
		}
	})
}
