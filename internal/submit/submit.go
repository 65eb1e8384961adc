// Package submit turns extracted query capabilities into actual form
// submissions — the downstream task the paper's extraction serves ("users
// can then use the condition to formulate a specific constraint ... by
// selecting an operator and filling in a value", Section 1; automatic form
// filling is the integration step that consumes the semantic model).
//
// A Query starts from the form's action/method and hidden defaults, takes
// constraints formulated against extracted conditions, and encodes a
// submittable request.
package submit

import (
	"fmt"
	"net/url"
	"strings"

	"formext/internal/htmlparse"
	"formext/internal/model"
)

// FormInfo is the submission envelope of a form: where and how to submit,
// plus the hidden fields that ride along unchanged.
type FormInfo struct {
	Action string
	Method string // "get" or "post"
	Hidden url.Values
	// Controls lists the named non-hidden controls (input/select/textarea)
	// of the form in document order. It is populated only by FormInfosOf on
	// multi-form pages, where it lets BestForm match envelopes against an
	// extracted model; the single-form fast path leaves it nil.
	Controls []string
}

// FormInfoOf reads the first form element of a parsed document. It runs on
// every extraction, so the scan recurses over the tree directly (no
// visitor stacks, no materialized node lists) and compares attribute
// values case-insensitively in place instead of lowering them into fresh
// strings. Every string the envelope keeps is cloned, so it outlives the
// document (the facade recycles the DOM arena once extraction ends).
func FormInfoOf(doc *htmlparse.Node) FormInfo {
	info := FormInfo{Method: "get", Hidden: url.Values{}}
	form := findForm(doc)
	if form == nil {
		return info
	}
	info.Action = strings.Clone(form.AttrOr("action", ""))
	if strings.EqualFold(form.AttrOr("method", "get"), "post") {
		info.Method = "post"
	}
	collectHidden(form, info.Hidden)
	return info
}

// FormInfosOf returns the submission envelope of every form element in
// document order. On single-form pages (the overwhelmingly common case)
// it costs the same as FormInfoOf: the control inventory is only gathered
// when there are two or more forms and something must choose between them.
// Like FormInfoOf, the envelopes own their strings.
func FormInfosOf(doc *htmlparse.Node) []FormInfo {
	var forms []*htmlparse.Node
	forms = findForms(doc, forms)
	if len(forms) == 0 {
		return nil
	}
	infos := make([]FormInfo, len(forms))
	for i, form := range forms {
		infos[i] = FormInfo{Method: "get", Hidden: url.Values{}}
		infos[i].Action = strings.Clone(form.AttrOr("action", ""))
		if strings.EqualFold(form.AttrOr("method", "get"), "post") {
			infos[i].Method = "post"
		}
		collectHidden(form, infos[i].Hidden)
		if len(forms) > 1 {
			infos[i].Controls = collectControls(form, nil)
		}
	}
	return infos
}

// findForms gathers every form element in document order. It does not
// descend into a form: HTML forbids nested forms, and a stray inner
// <form> tag would otherwise be double-counted.
func findForms(n *htmlparse.Node, out []*htmlparse.Node) []*htmlparse.Node {
	for _, c := range n.Children {
		if c.Type == htmlparse.ElementNode && c.Tag == "form" {
			out = append(out, c)
			continue
		}
		out = findForms(c, out)
	}
	return out
}

// collectControls gathers the names of the form's non-hidden controls.
func collectControls(n *htmlparse.Node, out []string) []string {
	for _, c := range n.Children {
		if c.Type == htmlparse.ElementNode {
			switch c.Tag {
			case "input":
				if strings.EqualFold(c.AttrOr("type", ""), "hidden") {
					break
				}
				fallthrough
			case "select", "textarea", "button":
				if name, ok := c.Attr("name"); ok && name != "" {
					out = append(out, strings.Clone(name))
				}
			}
		}
		out = collectControls(c, out)
	}
	return out
}

// BestForm picks, among a page's form envelopes, the one whose controls
// cover the most of the model's condition fields — the form the extraction
// actually described. Ties keep the earliest form; with no envelopes it
// returns the same empty GET envelope FormInfoOf yields on formless pages,
// and with a single envelope (Controls not gathered) that envelope wins by
// default.
func BestForm(infos []FormInfo, conds []model.Condition) FormInfo {
	if len(infos) == 0 {
		return FormInfo{Method: "get", Hidden: url.Values{}}
	}
	if len(infos) == 1 {
		return infos[0]
	}
	fields := map[string]bool{}
	for i := range conds {
		for _, f := range conds[i].Fields {
			fields[f] = true
		}
		if conds[i].OperatorField != "" {
			fields[conds[i].OperatorField] = true
		}
	}
	best, bestScore := 0, -1
	for i, info := range infos {
		matched := map[string]bool{}
		for _, name := range info.Controls {
			if fields[name] {
				matched[name] = true
			}
		}
		// Distinct names, not control count: a five-radio group is still
		// one field.
		if len(matched) > bestScore {
			best, bestScore = i, len(matched)
		}
	}
	return infos[best]
}

// findForm returns the first form element in document order, excluding the
// root itself (matching FindTag).
func findForm(n *htmlparse.Node) *htmlparse.Node {
	for _, c := range n.Children {
		if c.Type == htmlparse.ElementNode && c.Tag == "form" {
			return c
		}
		if f := findForm(c); f != nil {
			return f
		}
	}
	return nil
}

// collectHidden gathers every descendant hidden input's name/value pair in
// document order.
func collectHidden(n *htmlparse.Node, hidden url.Values) {
	for _, c := range n.Children {
		if c.Type == htmlparse.ElementNode && c.Tag == "input" &&
			strings.EqualFold(c.AttrOr("type", ""), "hidden") {
			if name, ok := c.Attr("name"); ok && name != "" {
				hidden.Add(strings.Clone(name), strings.Clone(c.AttrOr("value", "")))
			}
		}
		collectHidden(c, hidden)
	}
}

// Query accumulates bound constraints over one form.
type Query struct {
	form   FormInfo
	values url.Values
}

// NewQuery starts a query from the form envelope; hidden fields are
// pre-filled.
func NewQuery(form FormInfo) *Query {
	v := url.Values{}
	for k, vs := range form.Hidden {
		for _, s := range vs {
			v.Add(k, s)
		}
	}
	return &Query{form: form, values: v}
}

// Apply binds one formulated constraint into the query:
//
//   - text domains fill the condition's field with the value;
//   - enum domains translate the display value to its wire value
//     (checkbox-style multi-enums may be applied repeatedly);
//   - bool domains switch the checkbox on for any non-empty value;
//   - range domains take "lo..hi" and fill the two endpoint fields;
//   - date domains take "part/part/part" filled into the part fields in
//     visual order (month/day/year on typical forms).
//
// A selected operator is transmitted through the condition's operator
// field when the extraction recovered one.
func (q *Query) Apply(k model.Constraint) error {
	c := k.Condition
	if c == nil {
		return fmt.Errorf("submit: constraint without condition")
	}
	if len(c.Fields) == 0 {
		return fmt.Errorf("submit: condition %q has no fields", c.Attribute)
	}
	if k.Operator != "" {
		if err := q.applyOperator(c, k.Operator); err != nil {
			return err
		}
	}
	switch c.Domain.Kind {
	case model.TextDomain:
		q.values.Set(c.Fields[0], k.Value)
	case model.EnumDomain:
		wire, err := wireValue(c, k.Value)
		if err != nil {
			return err
		}
		if c.Domain.Multiple {
			q.values.Add(c.Fields[0], wire)
		} else {
			q.values.Set(c.Fields[0], wire)
		}
	case model.BoolDomain:
		if k.Value != "" && !strings.EqualFold(k.Value, "false") && k.Value != "0" {
			q.values.Set(c.Fields[0], "on")
		}
	case model.RangeDomain:
		lo, hi, ok := strings.Cut(k.Value, "..")
		if !ok {
			return fmt.Errorf("submit: range value %q must be \"lo..hi\"", k.Value)
		}
		if len(c.Fields) < 2 {
			return fmt.Errorf("submit: range condition %q has %d fields", c.Attribute, len(c.Fields))
		}
		q.values.Set(c.Fields[0], strings.TrimSpace(lo))
		q.values.Set(c.Fields[1], strings.TrimSpace(hi))
	case model.DateDomain:
		parts := strings.Split(k.Value, "/")
		if len(parts) != len(c.Fields) {
			return fmt.Errorf("submit: date value %q has %d parts for %d fields", k.Value, len(parts), len(c.Fields))
		}
		for i, p := range parts {
			q.values.Set(c.Fields[i], strings.TrimSpace(p))
		}
	default:
		return fmt.Errorf("submit: unsupported domain kind %q", c.Domain.Kind)
	}
	return nil
}

// applyOperator transmits the operator selection.
func (q *Query) applyOperator(c *model.Condition, operator string) error {
	if c.OperatorField == "" {
		return nil // implicit operator; nothing on the wire
	}
	want := model.NormalizeLabel(operator)
	for i, o := range c.Operators {
		if model.NormalizeLabel(o) != want {
			continue
		}
		if i < len(c.OperatorValues) {
			q.values.Set(c.OperatorField, c.OperatorValues[i])
			return nil
		}
		break
	}
	return fmt.Errorf("submit: no wire value for operator %q of %q", operator, c.Attribute)
}

// wireValue translates an enum display value.
func wireValue(c *model.Condition, display string) (string, error) {
	want := model.NormalizeLabel(display)
	for i, v := range c.Domain.Values {
		if model.NormalizeLabel(v) == want {
			if i < len(c.SubmitValues) {
				return c.SubmitValues[i], nil
			}
			return v, nil // no wire mapping recovered; send the display text
		}
	}
	return "", fmt.Errorf("submit: value %q outside the domain of %q", display, c.Attribute)
}

// Values exposes the accumulated parameters.
func (q *Query) Values() url.Values { return q.values }

// URL renders a GET request target; for POST forms it returns the action
// and the body separately via Encode.
func (q *Query) URL() (string, error) {
	if q.form.Method != "get" {
		return "", fmt.Errorf("submit: form method is %s; use Encode for the body", q.form.Method)
	}
	sep := "?"
	if strings.Contains(q.form.Action, "?") {
		sep = "&"
	}
	return q.form.Action + sep + q.values.Encode(), nil
}

// Encode renders the urlencoded parameters (a POST body, or the query
// string without the action).
func (q *Query) Encode() string { return q.values.Encode() }

// Method reports the submission method.
func (q *Query) Method() string { return q.form.Method }

// Action reports the submission target.
func (q *Query) Action() string { return q.form.Action }
