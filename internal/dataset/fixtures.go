package dataset

import (
	"strings"

	"formext/internal/model"
)

// Fixed fixtures reproducing the paper's two running-example interfaces
// (Figure 3): Qam, the amazon.com book search, and Qaa, the aa.com flight
// search. Examples and tests use them as known-answer inputs.

// QamHTML is the amazon.com-style interface Qam of Figure 3(a).
const QamHTML = `<html><body>
<h3>Search our catalog of 2 million titles</h3>
<form action="/search" method="get">
<table>
<tr><td>Author</td><td><input type="text" name="field-author" size="40"></td></tr>
<tr><td></td><td>
<input type="radio" name="author-mode" value="word" checked>First name/initials and last name
<input type="radio" name="author-mode" value="begins">Start of last name
<input type="radio" name="author-mode" value="exact">Exact name</td></tr>
<tr><td>Title</td><td><input type="text" name="field-title" size="40"></td></tr>
<tr><td></td><td>
<input type="radio" name="title-mode" value="word" checked>Title word(s)
<input type="radio" name="title-mode" value="begins">Start(s) of title word(s)
<input type="radio" name="title-mode" value="exact">Exact start of title</td></tr>
<tr><td>Publisher</td><td><input type="text" name="field-publisher" size="40"></td></tr>
<tr><td>Subject</td><td><select name="subject"><option>Any subject</option><option>Arts</option><option>Biography</option><option>Fiction</option></select></td></tr>
<tr><td>Price</td><td><select name="price"><option>any price</option><option>under $5</option><option>under $20</option><option>under $50</option></select></td></tr>
<tr><td colspan="2"><input type="submit" value="Search Now"> <input type="reset" value="Clear"></td></tr>
</table>
</form></body></html>`

// QamTruth is the hand-labelled semantic model of Qam — five conditions,
// as the paper's introduction describes ("amazon.com supports a set of five
// conditions (on author, title, ..., publisher)").
var QamTruth = []model.Condition{
	{Attribute: "Author",
		Operators: []string{"First name/initials and last name", "Start of last name", "Exact name"},
		Domain:    model.Domain{Kind: model.TextDomain}},
	{Attribute: "Title",
		Operators: []string{"Title word(s)", "Start(s) of title word(s)", "Exact start of title"},
		Domain:    model.Domain{Kind: model.TextDomain}},
	{Attribute: "Publisher", Domain: model.Domain{Kind: model.TextDomain}},
	{Attribute: "Subject", Domain: model.Domain{Kind: model.EnumDomain,
		Values: []string{"Any subject", "Arts", "Biography", "Fiction"}}},
	{Attribute: "Price", Domain: model.Domain{Kind: model.EnumDomain,
		Values: []string{"any price", "under $5", "under $20", "under $50"}}},
}

// QaaHTML is the aa.com-style interface Qaa of Figure 3(b).
const QaaHTML = `<html><body>
<h3>Plan your trip</h3>
<form action="/book" method="get">
<table>
<tr><td>From</td><td><input type="text" name="orig" size="20"></td>
    <td>To</td><td><input type="text" name="dest" size="20"></td></tr>
<tr><td>Departure date</td><td colspan="3">
  <select name="dmonth"><option>January</option><option>February</option><option>March</option><option>April</option><option>May</option><option>June</option><option>July</option><option>August</option><option>September</option><option>October</option><option>November</option><option>December</option></select>
  <select name="dday"><option>1</option><option>2</option><option>3</option><option>4</option><option>5</option><option>6</option><option>7</option><option>8</option><option>9</option><option>10</option><option>11</option><option>12</option><option>13</option><option>14</option><option>15</option><option>16</option><option>17</option><option>18</option><option>19</option><option>20</option><option>21</option><option>22</option><option>23</option><option>24</option><option>25</option><option>26</option><option>27</option><option>28</option><option>29</option><option>30</option><option>31</option></select>
  <select name="dyear"><option>2004</option><option>2005</option><option>2006</option><option>2007</option></select></td></tr>
<tr><td>Return date</td><td colspan="3">
  <select name="rmonth"><option>January</option><option>February</option><option>March</option><option>April</option><option>May</option><option>June</option><option>July</option><option>August</option><option>September</option><option>October</option><option>November</option><option>December</option></select>
  <select name="rday"><option>1</option><option>2</option><option>3</option><option>4</option><option>5</option><option>6</option><option>7</option><option>8</option><option>9</option><option>10</option><option>11</option><option>12</option><option>13</option><option>14</option><option>15</option><option>16</option><option>17</option><option>18</option><option>19</option><option>20</option><option>21</option><option>22</option><option>23</option><option>24</option><option>25</option><option>26</option><option>27</option><option>28</option><option>29</option><option>30</option><option>31</option></select>
  <select name="ryear"><option>2004</option><option>2005</option><option>2006</option><option>2007</option></select></td></tr>
<tr><td>Number of passengers</td><td><select name="pax"><option>1</option><option>2</option><option>3</option><option>4</option><option>5</option><option>6</option></select></td>
    <td>Cabin</td><td><select name="cabin"><option>Coach</option><option>Business</option><option>First</option></select></td></tr>
<tr><td>Trip type</td><td colspan="3">
  <input type="radio" name="trip" checked>Round trip
  <input type="radio" name="trip">One way</td></tr>
<tr><td colspan="4"><input type="submit" value="Go"></td></tr>
</table></form></body></html>`

// QaaTruth is the hand-labelled semantic model of Qaa.
var QaaTruth = []model.Condition{
	{Attribute: "From", Domain: model.Domain{Kind: model.TextDomain}},
	{Attribute: "To", Domain: model.Domain{Kind: model.TextDomain}},
	{Attribute: "Departure date", Domain: model.Domain{Kind: model.DateDomain}},
	{Attribute: "Return date", Domain: model.Domain{Kind: model.DateDomain}},
	{Attribute: "Number of passengers", Domain: model.Domain{Kind: model.EnumDomain,
		Values: []string{"1", "2", "3", "4", "5", "6"}}},
	{Attribute: "Cabin", Domain: model.Domain{Kind: model.EnumDomain,
		Values: []string{"Coach", "Business", "First"}}},
	{Attribute: "Trip type", Domain: model.Domain{Kind: model.EnumDomain,
		Values: []string{"Round trip", "One way"}}},
}

// Figure5Fragment is the two-condition Qam fragment of Figure 5, whose
// tokenization yields exactly 16 tokens.
const Figure5Fragment = `<form>
Author <input type="text" name="query-0" size="28"><br>
<input type="radio" name="field-0" checked>First name/initials and last name
<input type="radio" name="field-0">Start of last name
<input type="radio" name="field-0">Exact name<br>
Title <input type="text" name="query-1" size="28"><br>
<input type="radio" name="field-1" checked>Title word(s)
<input type="radio" name="field-1">Start(s) of title word(s)
<input type="radio" name="field-1">Exact start of title
</form>`

// FuzzSeeds are the pages the whole-page fuzz targets seed from, besides
// the fixtures above: empty and text-only input, bare widgets, option
// lists, colspans, links and rules, and hostile shapes — adversarial
// nesting, unclosed-tag floods and recursive tables.
var FuzzSeeds = []string{
	"",
	"plain words only",
	`<form>Author <input type=text name=a></form>`,
	`<form><select name=s><option>1<option>2</select><input type=radio name=r>x</form>`,
	`<table><tr><td colspan=3>wide</td></tr><tr><td>a<td>b<td>c</table>`,
	`<form>from <input type=text size=8> to <input type=text size=8></form>`,
	`<a href="/x">link</a><hr><input type=submit>`,
	strings.Repeat("<div>", 600) + "x" + strings.Repeat("</div>", 600),
	strings.Repeat("<table><tr><td>", 40) + "x",
	strings.Repeat("<p>w <input type=text name=q>", 40),
	strings.Repeat("<select>", 100) + "<option>v",
}
