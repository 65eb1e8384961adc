package htmlparse

import (
	"bytes"

	"formext/internal/slab"
)

// tokenKind discriminates lexer output.
type tokenKind int

const (
	tokText tokenKind = iota
	tokStartTag
	tokEndTag
	tokComment
	tokDoctype
	tokEOF
)

// lexToken is one lexical unit of the HTML input.
type lexToken struct {
	kind        tokenKind
	data        string // tag name (interned, lower-cased), text content, or comment body
	info        *nameInfo
	attrs       []Attr
	selfClosing bool
}

// lexer scans HTML input into tokens. It is deliberately forgiving:
// anything that is not a well-formed tag is treated as text, mirroring
// browser error recovery.
//
// The lexer is zero-copy where the grammar allows: text without character
// references, comment bodies and raw-text content are views into the input
// buffer; tag and attribute names come from the intern table; only decoded
// text and attribute values touch the arena's byte slab. The input buffer
// must therefore stay unmodified for the lifetime of the produced tokens
// (and of any tree built from them).
type lexer struct {
	src []byte
	pos int
	// rawTag, when non-empty, makes the lexer consume everything up to the
	// matching end tag as a single text token (script/style/textarea/title).
	rawTag string
	// text backs decoded strings and uncommon names; nil falls back to
	// plain allocation.
	text *slab.Bytes
	// arena additionally backs attribute slices when non-nil.
	arena *Arena
	// tok is the token every scan fills in place and next returns.
	tok lexToken
}

func newLexer(src []byte, a *Arena) *lexer {
	return &lexer{src: src, text: a.textBytes(), arena: a}
}

// next scans the next token and returns it. The token is the lexer's own,
// filled in place, and is overwritten by the following call: callers copy
// what they keep (ParseBytes moves its fields into the Node), so no token
// is copied out through the scan's frames.
func (l *lexer) next() *lexToken {
	t := &l.tok
	if l.pos >= len(l.src) {
		*t = lexToken{kind: tokEOF}
		return t
	}
	if l.rawTag != "" {
		if l.lexRawText() {
			return t
		}
		// Nothing between the tags; continue with the end tag itself.
		return l.next()
	}
	if l.src[l.pos] == '<' {
		if l.lexMarkup() {
			return t
		}
		// A lone '<' that does not begin markup: emit it as text.
		l.pos++
		*t = lexToken{kind: tokText, data: "<"}
		return t
	}
	l.lexText()
	return t
}

func (l *lexer) lexText() {
	start := l.pos
	if end := bytes.IndexByte(l.src[start:], '<'); end >= 0 {
		l.pos = start + end
	} else {
		l.pos = len(l.src)
	}
	l.tok = lexToken{kind: tokText, data: decodeEntitiesArena(l.src[start:l.pos], l.text)}
}

// lexRawText consumes content up to the closing tag of the current raw-text
// element and reports whether there was any; empty content yields no
// token. The closing-tag search folds ASCII case in place instead of
// lowering a copy of the whole remainder as the string lexer did; the two
// agree except on pathological non-ASCII input whose Unicode lower-casing
// changes byte offsets.
func (l *lexer) lexRawText() bool {
	idx := indexCloseTag(l.src[l.pos:], l.rawTag)
	var content []byte
	if idx < 0 {
		content = l.src[l.pos:]
		l.pos = len(l.src)
	} else {
		content = l.src[l.pos : l.pos+idx]
		l.pos += idx
	}
	l.rawTag = ""
	if len(content) == 0 {
		return false
	}
	l.tok = lexToken{kind: tokText, data: bstr(content)}
	return true
}

// indexCloseTag finds the first "</tag" in src, ignoring ASCII case; tag is
// already lowercase.
func indexCloseTag(src []byte, tag string) int {
	n := len(tag)
	for i := 0; ; i++ {
		k := bytes.IndexByte(src[i:], '<')
		if k < 0 {
			return -1
		}
		i += k
		if i+2+n > len(src) {
			return -1
		}
		if src[i+1] == '/' && equalFoldLower(src[i+2:i+2+n], tag) {
			return i
		}
	}
}

// equalFoldLower reports whether b equals the lowercase ASCII string s
// once b's ASCII upper case is folded.
func equalFoldLower(b []byte, s string) bool {
	for j := 0; j < len(s); j++ {
		c := b[j]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[j] {
			return false
		}
	}
	return true
}

// lexMarkup attempts to scan a tag, comment or doctype starting at '<'
// into the lexer's token; false means the '<' does not begin markup.
func (l *lexer) lexMarkup() bool {
	src, p := l.src, l.pos
	if p+1 >= len(src) {
		return false
	}
	switch {
	case bytes.HasPrefix(src[p:], commentOpen):
		l.lexComment()
		return true
	case src[p+1] == '!' || src[p+1] == '?':
		l.lexDeclaration()
		return true
	case src[p+1] == '/':
		return l.lexEndTag()
	default:
		return l.lexStartTag()
	}
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
)

func (l *lexer) lexComment() {
	l.pos += 4 // consume "<!--"
	end := bytes.Index(l.src[l.pos:], commentClose)
	var body []byte
	if end < 0 {
		body = l.src[l.pos:]
		l.pos = len(l.src)
	} else {
		body = l.src[l.pos : l.pos+end]
		l.pos += end + 3
	}
	l.tok = lexToken{kind: tokComment, data: bstr(body)}
}

func (l *lexer) lexDeclaration() {
	// <!DOCTYPE ...> or <?xml ...?> — consume to '>'.
	l.pos = skipPastGT(l.src, l.pos)
	l.tok = lexToken{kind: tokDoctype}
}

// skipPastGT returns the position just past the first '>' at or after p,
// or len(src) when there is none.
func skipPastGT(src []byte, p int) int {
	if end := bytes.IndexByte(src[p:], '>'); end >= 0 {
		return p + end + 1
	}
	return len(src)
}

func (l *lexer) lexEndTag() bool {
	p := l.pos + 2
	start := p
	for p < len(l.src) && isTagNameByte(l.src[p]) {
		p++
	}
	if p == start {
		return false
	}
	name, info := internName(l.src[start:p], l.text)
	// Skip to '>' discarding any junk.
	l.pos = skipPastGT(l.src, p)
	l.tok = lexToken{kind: tokEndTag, data: name, info: info}
	return true
}

func (l *lexer) lexStartTag() bool {
	src := l.src
	p := l.pos + 1
	start := p
	for p < len(src) && isTagNameByte(src[p]) {
		p++
	}
	if p == start {
		return false
	}
	t := &l.tok
	*t = lexToken{kind: tokStartTag}
	t.data, t.info = internName(src[start:p], l.text)
	for {
		p = skipSpace(src, p)
		if p >= len(src) {
			break
		}
		if src[p] == '>' {
			p++
			break
		}
		if src[p] == '/' {
			p++
			if p < len(src) && src[p] == '>' {
				t.selfClosing = true
				p++
				break
			}
			continue
		}
		var attr Attr
		attr, p = lexAttr(src, p, l.text)
		if attr.Name == "" {
			p++ // junk byte; skip to avoid an infinite loop
			continue
		}
		t.attrs = l.arena.appendAttr(t.attrs, attr)
	}
	l.pos = p
	if !t.selfClosing {
		var raw bool
		if t.info != nil {
			raw = t.info.flags&infoRawText != 0
		} else {
			raw = isRawTextTag(t.data)
		}
		if raw {
			l.rawTag = t.data
		}
	}
	return true
}

// lexAttr scans one attribute at position p and returns it with the new
// position. The name is lower-cased (interned) and the value entity-decoded.
func lexAttr(src []byte, p int, text *slab.Bytes) (Attr, int) {
	start := p
	for p < len(src) && isAttrNameByte(src[p]) {
		p++
	}
	if p == start {
		return Attr{}, p
	}
	name, _ := internName(src[start:p], text)
	attr := Attr{Name: name}
	p = skipSpace(src, p)
	if p >= len(src) || src[p] != '=' {
		return attr, p // boolean attribute
	}
	p = skipSpace(src, p+1)
	if p >= len(src) {
		return attr, p
	}
	switch src[p] {
	case '"', '\'':
		quote := src[p]
		p++
		end := bytes.IndexByte(src[p:], quote)
		if end < 0 {
			// Unterminated: the value runs to the end of the input.
			attr.Value = decodeEntitiesArena(src[p:], text)
			return attr, len(src)
		}
		attr.Value = decodeEntitiesArena(src[p:p+end], text)
		p += end + 1 // past the closing quote
	default:
		vstart := p
		for p < len(src) && !isSpaceByte(src[p]) && src[p] != '>' {
			p++
		}
		attr.Value = decodeEntitiesArena(src[vstart:p], text)
	}
	return attr, p
}

func isRawTextTag(tag string) bool {
	switch tag {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}

func isTagNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func isAttrNameByte(c byte) bool {
	return !isSpaceByte(c) && c != '=' && c != '>' && c != '/' && c != '"' && c != '\''
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func skipSpace(src []byte, p int) int {
	for p < len(src) && isSpaceByte(src[p]) {
		p++
	}
	return p
}
