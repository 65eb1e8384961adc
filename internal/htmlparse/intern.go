package htmlparse

import (
	"strings"

	"formext/internal/slab"
)

// Name interning. Every start tag, end tag and attribute carries a name
// that the old lexer lower-cased with strings.ToLower — one allocation per
// token. Form pages draw those names from a tiny vocabulary, so the lexer
// folds the raw bytes into a stack buffer and resolves them against a
// package-level open-addressed table; names outside the vocabulary are
// carved once from the parse arena. Interned entries also carry the tree-
// builder's per-tag metadata (void, raw-text, implied closers), replacing
// four hash-map probes per tag with one table hit. The table is built at
// init and never written afterwards, so it is safe for any number of
// concurrent parses.

// nameInfo is one interned name with the lexer/parser metadata keyed to it.
type nameInfo struct {
	name  string
	flags uint8
	// selfBit marks this tag in the implied-closer universe (0 when the
	// tag is never implicitly closed); closes is the mask of tags a start
	// tag of this name implicitly closes.
	selfBit uint16
	closes  uint16
	// frame is the bit pattern a parser stack frame records for an open
	// element of this name: selfBit, plus bitTable for <table> so boundary
	// checks need no string compare. Computed at init.
	frame uint16
}

const (
	infoVoid uint8 = 1 << iota // void element: never pushed on the stack
	infoRawText
	infoTableScoped // implied closing must respect the nearest <table>
)

// Implied-closer bits. Only tags that appear in some closer set need one.
const (
	bitLI uint16 = 1 << iota
	bitOption
	bitOptgroup
	bitTR
	bitTD
	bitTH
	bitTHead
	bitTBody
	bitTFoot
	bitDD
	bitDT
	bitP
	// bitTable is outside the closer universe: it only ever appears in
	// stack-frame bits, marking a <table> boundary.
	bitTable
)

// cellBits closes rows/cells; sectionBits adds the table sections.
const (
	cellBits    = bitTR | bitTD | bitTH
	sectionBits = bitTHead | bitTBody | bitTFoot
)

// internMaxLen bounds the stack-buffer fold; no interesting HTML name is
// longer than this.
const internMaxLen = 24

// internTabBits sizes the open-addressed table: 512 slots for ~170 names
// keeps probe chains short.
const internTabBits = 9

var internTab [1 << internTabBits]*nameInfo

// internedNames lists the closed vocabulary: tag names with their builder
// metadata, then attribute names (flag-free). The three metadata maps in
// parser.go (voidElements, impliedClosers, tableScoped) stay authoritative
// for tests and non-hot callers; init cross-checks the two encodings.
var internedNames = []nameInfo{
	{name: "a"}, {name: "area", flags: infoVoid}, {name: "b"},
	{name: "base", flags: infoVoid}, {name: "big"},
	{name: "blockquote", closes: bitP}, {name: "body"},
	{name: "br", flags: infoVoid}, {name: "button"}, {name: "caption"},
	{name: "center"}, {name: "code"}, {name: "col", flags: infoVoid},
	{name: "colgroup"}, {name: "dd", selfBit: bitDD, closes: bitDD | bitDT},
	{name: "div", closes: bitP}, {name: "dl"},
	{name: "dt", selfBit: bitDT, closes: bitDD | bitDT}, {name: "em"},
	{name: "embed", flags: infoVoid}, {name: "fieldset", closes: bitP},
	{name: "font"}, {name: "form", closes: bitP}, {name: "frame"},
	{name: "frameset"}, {name: "h1", closes: bitP}, {name: "h2", closes: bitP},
	{name: "h3", closes: bitP}, {name: "h4", closes: bitP},
	{name: "h5", closes: bitP}, {name: "h6", closes: bitP}, {name: "head"},
	{name: "hr", flags: infoVoid, closes: bitP}, {name: "html"}, {name: "i"},
	{name: "iframe"}, {name: "img", flags: infoVoid},
	{name: "input", flags: infoVoid}, {name: "label"}, {name: "legend"},
	{name: "li", selfBit: bitLI, closes: bitLI}, {name: "link", flags: infoVoid},
	{name: "meta", flags: infoVoid}, {name: "nobr"}, {name: "noscript"},
	{name: "ol", closes: bitP},
	{name: "optgroup", selfBit: bitOptgroup, closes: bitOption | bitOptgroup},
	{name: "option", selfBit: bitOption, closes: bitOption},
	{name: "p", selfBit: bitP, closes: bitP}, {name: "param", flags: infoVoid},
	{name: "pre"}, {name: "script", flags: infoRawText}, {name: "select"},
	{name: "small"}, {name: "source", flags: infoVoid}, {name: "span"},
	{name: "strong"},
	{name: "style", flags: infoRawText}, {name: "sub"}, {name: "sup"},
	{name: "table", closes: bitP},
	{name: "tbody", flags: infoTableScoped, selfBit: bitTBody, closes: cellBits | sectionBits},
	{name: "td", flags: infoTableScoped, selfBit: bitTD, closes: bitTD | bitTH},
	{name: "textarea", flags: infoRawText},
	{name: "tfoot", flags: infoTableScoped, selfBit: bitTFoot, closes: cellBits | sectionBits},
	{name: "th", flags: infoTableScoped, selfBit: bitTH, closes: bitTD | bitTH},
	{name: "thead", flags: infoTableScoped, selfBit: bitTHead, closes: cellBits | sectionBits},
	{name: "title", flags: infoRawText},
	{name: "tr", flags: infoTableScoped, selfBit: bitTR, closes: cellBits},
	{name: "track", flags: infoVoid}, {name: "tt"}, {name: "u"},
	{name: "ul", closes: bitP}, {name: "wbr", flags: infoVoid},

	// Attribute names.
	{name: "accept"}, {name: "accesskey"}, {name: "action"}, {name: "align"},
	{name: "alt"}, {name: "bgcolor"}, {name: "border"}, {name: "cellpadding"},
	{name: "cellspacing"}, {name: "checked"}, {name: "class"}, {name: "color"},
	{name: "cols"}, {name: "colspan"}, {name: "content"}, {name: "disabled"},
	{name: "enctype"}, {name: "face"}, {name: "for"}, {name: "height"},
	{name: "href"}, {name: "http-equiv"}, {name: "id"}, {name: "lang"},
	{name: "maxlength"}, {name: "method"}, {name: "multiple"}, {name: "name"},
	{name: "onblur"}, {name: "onchange"}, {name: "onclick"}, {name: "onfocus"},
	{name: "onload"}, {name: "onmouseout"}, {name: "onmouseover"},
	{name: "onsubmit"}, {name: "placeholder"}, {name: "readonly"},
	{name: "rel"}, {name: "rows"}, {name: "rowspan"}, {name: "selected"},
	{name: "size"}, {name: "src"}, {name: "tabindex"}, {name: "target"},
	{name: "type"}, {name: "valign"}, {name: "value"}, {name: "width"},
}

func init() {
	for i := range internedNames {
		e := &internedNames[i]
		e.frame = e.selfBit
		if e.name == "table" {
			e.frame |= bitTable
		}
		h := hashName(e.name)
		for {
			slot := h & (len(internTab) - 1)
			if internTab[slot] == nil {
				internTab[slot] = e
				break
			}
			if internTab[slot].name == e.name {
				panic("htmlparse: duplicate interned name " + e.name)
			}
			h++
		}
	}
	// The metadata bits must agree with the authoritative maps in
	// parser.go; the encodings are maintained by hand, so verify at init.
	for i := range internedNames {
		e := &internedNames[i]
		if voidElements[e.name] != (e.flags&infoVoid != 0) {
			panic("htmlparse: void flag mismatch for " + e.name)
		}
		if tableScoped[e.name] != (e.flags&infoTableScoped != 0) {
			panic("htmlparse: table-scope flag mismatch for " + e.name)
		}
		if isRawTextTag(e.name) != (e.flags&infoRawText != 0) {
			panic("htmlparse: raw-text flag mismatch for " + e.name)
		}
		for j := range internedNames {
			o := &internedNames[j]
			if o.selfBit == 0 {
				continue
			}
			want := impliedClosers[e.name][o.name]
			if want != (e.closes&o.selfBit != 0) {
				panic("htmlparse: implied-closer mismatch for " + e.name + "/" + o.name)
			}
		}
	}
	// And every name the maps know must be in the vocabulary, or the flag
	// encoding silently loses behaviour for it.
	for name := range voidElements {
		mustIntern(name)
	}
	for name, set := range impliedClosers {
		mustIntern(name)
		for closed := range set {
			if mustIntern(closed).selfBit == 0 {
				panic("htmlparse: " + closed + " is implicitly closable but has no selfBit")
			}
		}
	}
	for name := range tableScoped {
		mustIntern(name)
	}
}

func mustIntern(name string) *nameInfo {
	e := lookupInfo([]byte(name))
	if e == nil {
		panic("htmlparse: " + name + " is in a parser map but not interned")
	}
	return e
}

// hashName is FNV-1a; names reaching it are already lowercase.
func hashName(s string) int {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return int(h)
}

// FNV-1a parameters shared by hashName, lookupInfo and internName's fused
// fold-and-hash loop.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

// lookupInfo probes the table for an already-folded name.
func lookupInfo(folded []byte) *nameInfo {
	h := fnvOffset
	for _, c := range folded {
		h = (h ^ uint32(c)) * fnvPrime
	}
	return probeInfo(folded, h)
}

// probeInfo probes the table for a folded name whose FNV-1a hash is h.
func probeInfo(folded []byte, h uint32) *nameInfo {
	slot := int(h) & (len(internTab) - 1)
	for {
		e := internTab[slot]
		if e == nil {
			return nil
		}
		if e.name == string(folded) {
			return e
		}
		slot = (slot + 1) & (len(internTab) - 1)
	}
}

// internName resolves the raw name bytes to their lower-cased form — the
// shared table string plus its metadata when the name is in the
// vocabulary, otherwise a copy carved from the arena (nil info). Only
// ASCII names take the fold path; names with high bytes fall back to
// strings.ToLower so Unicode case mapping matches the old lexer byte for
// byte.
func internName(raw []byte, text *slab.Bytes) (string, *nameInfo) {
	if len(raw) <= internMaxLen {
		// Fold and hash in one pass.
		var buf [internMaxLen]byte
		h := fnvOffset
		for i, c := range raw {
			if c >= 0x80 {
				return internSlow(raw)
			}
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
			h = (h ^ uint32(c)) * fnvPrime
		}
		folded := buf[:len(raw)]
		if e := probeInfo(folded, h); e != nil {
			return e.name, e
		}
		return text.Copy(folded), nil
	}
	for _, c := range raw {
		if c >= 0x80 {
			return internSlow(raw)
		}
	}
	// Long ASCII name outside the vocabulary: fold straight into the arena.
	text.BeginRun()
	for _, c := range raw {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		text.AppendByte(c)
	}
	return text.EndRun(), nil
}

// internSlow handles names with high bytes: Unicode lower-casing, then a
// table probe so that even an exotically-cased known name keeps its
// metadata (the old lexer's map lookups matched by value, so ours must
// too).
func internSlow(raw []byte) (string, *nameInfo) {
	low := strings.ToLower(string(raw))
	if len(low) <= internMaxLen {
		if e := lookupInfo([]byte(low)); e != nil {
			return e.name, e
		}
	}
	return low, nil
}
