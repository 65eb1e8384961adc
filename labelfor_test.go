package formext

import "testing"

func TestLabelForAssociation(t *testing.T) {
	// The label sits far from its field — geometry alone would lose it —
	// but <label for> declares the pairing.
	src := `<form><table>
	<tr><td><label for="au">Author</label></td><td></td></tr>
	<tr><td></td><td><br><br><input type="text" id="au" name="author" size="20"></td></tr>
	</table></form>`
	res := mustExtract(t, src)
	c := findCond(res, "Author")
	if c == nil {
		t.Fatalf("label-for condition lost: %s", attrList(res))
	}
	if len(c.Fields) != 1 || c.Fields[0] != "author" {
		t.Errorf("fields = %v", c.Fields)
	}
	if len(res.Model.Missing) != 0 {
		t.Errorf("missing = %v", res.Model.Missing)
	}
}

func TestLabelForDoesNotCrossWire(t *testing.T) {
	// A label whose for= names a different control must not claim the
	// nearer one.
	src := `<form><table>
	<tr><td><label for="b">Beta</label></td><td><input type="text" id="a" name="alpha" size="20"></td></tr>
	<tr><td>Alpha</td><td><input type="text" id="b" name="beta" size="20"></td></tr>
	</table></form>`
	res := mustExtract(t, src)
	// Geometry says Beta->alpha and Alpha->beta; labelfor additionally
	// offers Beta->beta. Whatever wins, the beta field must never be
	// attributed to something other than Beta or Alpha, and both fields
	// must be extracted.
	fields := map[string]bool{}
	for _, c := range res.Model.Conditions {
		for _, f := range c.Fields {
			fields[f] = true
		}
	}
	if !fields["alpha"] || !fields["beta"] {
		t.Errorf("fields lost: %s", attrList(res))
	}
}

func TestLabelForSelectList(t *testing.T) {
	// The same far-away label on a selection list: only <label for> pairs
	// them, and the condition keeps the list's options.
	src := `<form><table>
	<tr><td><label for="fm">Format</label></td><td></td></tr>
	<tr><td></td><td><br><br><select id="fm" name="format"><option>Hardcover</option><option>Paperback</option></select></td></tr>
	</table></form>`
	res := mustExtract(t, src)
	c := findCond(res, "Format")
	if c == nil {
		t.Fatalf("label-for condition lost: %s", attrList(res))
	}
	if len(c.Fields) != 1 || c.Fields[0] != "format" {
		t.Errorf("fields = %v", c.Fields)
	}
	if len(res.Model.Missing) != 0 {
		t.Errorf("missing = %v", res.Model.Missing)
	}
}
