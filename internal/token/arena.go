package token

import (
	"unsafe"

	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/slab"
)

// Arena supplies every allocation a tokenize pass makes: Token structs,
// the token pointer slice, option string slices, and the byte backing of
// every string a token stores (labels, names, values, ids, option texts).
// It is the only front-end memory a Result keeps: the produced token set
// retains arena memory, so Release hands the blocks over once the result
// takes ownership; the traversal stack and inner-text buffer are scratch
// that survives Release with capacity intact.
type Arena struct {
	toks slab.Slab[Token]
	ptrs slab.Slab[*Token]
	strs slab.Slab[string]
	text slab.Bytes

	stack []*layout.Box // render-tree traversal scratch
	buf   []byte        // inner-text scratch
}

// tokenBlockCap sizes the Token slab's blocks. Tokens are big (192 bytes
// each) and pages carry tens of them, so the default 256-object block would
// hand the Result a mostly-empty 48KB array per extraction.
const tokenBlockCap = 64

// Release hands the token set its memory and returns the bytes of the
// blocks it handed over, which the token set keeps resident whole.
func (a *Arena) Release() int64 {
	if a == nil {
		return 0
	}
	n := a.toks.Drop()*int64(unsafe.Sizeof(Token{})) + a.ptrs.Drop()*8 + a.strs.Drop()*16 + a.text.Drop()
	full := a.stack[:cap(a.stack)]
	for i := range full {
		full[i] = nil
	}
	a.stack = full[:0]
	a.buf = a.buf[:0]
	return n
}

func (a *Arena) newToken() *Token {
	if a == nil {
		return &Token{}
	}
	a.toks.BlockCap = tokenBlockCap
	t := a.toks.New()
	*t = Token{}
	return t
}

func (a *Arena) appendToken(dst []*Token, t *Token) []*Token {
	if a == nil {
		return append(dst, t)
	}
	return a.ptrs.Append(dst, t)
}

func (a *Arena) appendString(dst []string, s string) []string {
	if a == nil {
		return append(dst, s)
	}
	return a.strs.Append(dst, s)
}

// keep copies s into the arena, so the token holding it stops referencing
// the DOM, the render text or the page bytes; without an arena s is kept
// as is (the heap tree it aliases is garbage-collected normally).
func (a *Arena) keep(s string) string {
	if a == nil || s == "" {
		return s
	}
	a.text.BeginRun()
	a.text.AppendString(s)
	return a.text.EndRun()
}

// joinLabel builds "prev SPACE s" for a text-token merge; without an arena
// it falls back to plain concatenation.
func (a *Arena) joinLabel(prev, s string) string {
	if a == nil {
		return prev + " " + s
	}
	a.text.BeginRun()
	a.text.AppendString(prev)
	a.text.AppendByte(' ')
	a.text.AppendString(s)
	return a.text.EndRun()
}

// innerText is n.AppendInnerText through the arena's scratch buffer, with
// the result carved from the arena.
func (a *Arena) innerText(n *htmlparse.Node) string {
	if a == nil {
		return n.InnerText()
	}
	a.buf = n.AppendInnerText(a.buf[:0])
	return a.text.Copy(a.buf)
}
