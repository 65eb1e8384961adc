package htmlparse

import "formext/internal/slab"

// Arena supplies every allocation a parse makes: Node structs, child
// pointer slices, attribute slices, and the byte backing of decoded text
// and uncommon names. One arena serves one parse at a time; the facade
// pools arenas so a cold extraction reuses warmed block lists instead of
// allocating per node.
//
// The produced tree lives only until Release: nothing downstream of
// tokenization reads the DOM (the tokenizer copies what it keeps), so
// Release recycles every block for the next parse instead of handing it
// over. A caller that wants to keep a tree parses without an arena.
type Arena struct {
	nodes    slab.Slab[Node]
	children slab.Slab[*Node]
	attrs    slab.Slab[Attr]
	text     slab.Bytes

	stack []openElem // parse-time element stack, reused across parses
}

// Release ends the tree's life: every slab is zeroed and kept for the next
// parse, and the scratch stack keeps its capacity. Nodes, attribute values
// and text carved from the arena must not be used afterwards.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.nodes.Reset()
	a.children.Reset()
	a.attrs.Reset()
	a.text.Reset()
	a.stack = a.stack[:0]
}

// newNode carves a node. Nil-arena calls fall back to the heap, keeping
// the arena optional for one-shot parses.
func (a *Arena) newNode() *Node {
	if a == nil {
		return &Node{}
	}
	return a.nodes.New()
}

// appendChild is AppendChild through the arena's child-pointer slab.
func (a *Arena) appendChild(n, c *Node) {
	c.Parent = n
	if a == nil {
		n.Children = append(n.Children, c)
		return
	}
	n.Children = a.children.Append(n.Children, c)
}

// textBytes returns the byte slab (nil arena → nil slab, whose Copy path
// falls back to plain allocation).
func (a *Arena) textBytes() *slab.Bytes {
	if a == nil {
		return nil
	}
	return &a.text
}

// appendAttr appends through the attribute slab.
func (a *Arena) appendAttr(attrs []Attr, at Attr) []Attr {
	if a == nil {
		return append(attrs, at)
	}
	return a.attrs.Append(attrs, at)
}
