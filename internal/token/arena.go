package token

import (
	"unsafe"

	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/slab"
)

// Arena supplies every allocation a tokenize pass makes while it walks the
// render tree: Token structs, the token pointer slice, option string
// slices, and the byte backing of every string a token stores (labels,
// names, values, ids, option texts). None of it outlives the pass: once the
// token set is final it is handed over, copied into exact-size storage the
// arena does not own, and the slabs are reset so the next page reuses their
// blocks, as the DOM and layout arenas do. The traversal stack and
// inner-text buffer are scratch that keeps its capacity too.
type Arena struct {
	toks slab.Slab[Token]
	ptrs slab.Slab[*Token]
	strs slab.Slab[string]
	text slab.Bytes

	stack []*layout.Box // render-tree traversal scratch
	buf   []byte        // inner-text scratch
}

// Release recycles the arena. Token sets the arena produced are already
// handed over and stay valid; Release only matters after a pass that did
// not finish (a panic mid-walk), whose carved tokens nothing holds.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.reset()
	full := a.stack[:cap(a.stack)]
	for i := range full {
		full[i] = nil
	}
	a.stack = full[:0]
	a.buf = a.buf[:0]
}

// reset recycles the slabs' blocks for the next pass.
func (a *Arena) reset() {
	a.toks.Reset()
	a.ptrs.Reset()
	a.strs.Reset()
	a.text.Reset()
}

// handOver copies toks into storage sized exactly to them and owned by
// nothing but the tokens: one Token array, one pointer slice, one string
// slice behind every Options and OptionValues, and one byte buffer behind
// every string. It then resets the slabs. The copy is what a Result keeps,
// so it must happen before anything (parse instances, model strings)
// points into the token set.
func (a *Arena) handOver(toks []*Token) []*Token {
	defer a.reset()
	if len(toks) == 0 {
		return nil
	}
	nstr, nbytes := storage(toks)
	arr := make([]Token, len(toks))
	out := make([]*Token, len(toks))
	st := store{buf: make([]byte, 0, nbytes)}
	if nstr > 0 {
		st.strs = make([]string, 0, nstr)
	}
	for i, t := range toks {
		c := &arr[i]
		*c = *t
		c.SVal, c.Name, c.Value = st.str(t.SVal), st.str(t.Name), st.str(t.Value)
		c.ForID, c.ElemID = st.str(t.ForID), st.str(t.ElemID)
		c.Options = st.list(t.Options, nil)
		c.OptionValues = st.list(t.OptionValues, c.Options)
		out[i] = c
	}
	return out
}

// store lays a token set's strings out in the exact-size buffers handOver
// allocates.
type store struct {
	buf  []byte
	strs []string
}

func (s *store) str(v string) string {
	if v == "" {
		return ""
	}
	start := len(s.buf)
	s.buf = append(s.buf, v...)
	return unsafe.String(&s.buf[start], len(v))
}

// list copies vs into the string slice. An entry equal to the same entry
// of twin (the option text an option without a value attribute submits)
// shares twin's copy, as the arena shared it.
func (s *store) list(vs, twin []string) []string {
	if vs == nil {
		return nil
	}
	start := len(s.strs)
	for i, v := range vs {
		if i < len(twin) && twin[i] == v {
			s.strs = append(s.strs, twin[i])
		} else {
			s.strs = append(s.strs, s.str(v))
		}
	}
	return s.strs[start:len(s.strs):len(s.strs)]
}

// storage returns how many option strings and string bytes a token set's
// hand-over storage holds.
func storage(toks []*Token) (nstr, nbytes int) {
	for _, t := range toks {
		nbytes += len(t.SVal) + len(t.Name) + len(t.Value) + len(t.ForID) + len(t.ElemID)
		nstr += len(t.Options) + len(t.OptionValues)
		for _, v := range t.Options {
			nbytes += len(v)
		}
		for i, v := range t.OptionValues {
			if i >= len(t.Options) || t.Options[i] != v {
				nbytes += len(v)
			}
		}
	}
	return nstr, nbytes
}

// Footprint returns the bytes a token set keeps resident when it is laid
// out as a hand-over lays it out: a Token and a pointer per slot of toks,
// a string header per option text and value, and the string bytes, an
// option value equal to its text counted once.
func Footprint(toks []*Token) int64 {
	nstr, nbytes := storage(toks)
	return int64(cap(toks))*int64(unsafe.Sizeof(Token{})+unsafe.Sizeof((*Token)(nil))) +
		int64(nstr)*int64(unsafe.Sizeof("")) + int64(nbytes)
}

func (a *Arena) newToken() *Token {
	if a == nil {
		return &Token{}
	}
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
