// Package queryparse parses a small SQL-like textual form of the library's
// select/keyjoin queries, resolving value labels against a database schema:
//
//	FROM Contact c, Patient p
//	WHERE c.Patient = p.PK AND p.Age BETWEEN age6 AND age7
//	  AND c.Contype = roommate AND s.Unique != true
//
// Clause forms: alias.Attr = alias2.PK (keyjoin through the foreign key
// named Attr), alias.Attr = alias2.Attr2 (non-key join), alias.Attr = value,
// alias.Attr != value, alias.Attr IN (v1, v2, …), alias.Attr NOT IN (…),
// and alias.Attr BETWEEN lo AND hi. Values are attribute labels, or #n for
// a raw value code.
//
// Malformed input produces a *ParseError carrying the byte offset and the
// offending token, so callers (the HTTP estimation service in particular)
// can point at the problem instead of echoing a bare message.
package queryparse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"prmsel/internal/dataset"
	"prmsel/internal/query"
)

// ParseError reports a parse failure with its position in the input.
type ParseError struct {
	// Offset is the byte offset of the offending token (len(input) when
	// the input ended prematurely).
	Offset int
	// Near is the offending token, or "" at end of input.
	Near string
	// Msg describes the failure.
	Msg string
	// Err is the underlying error, when the failure wraps one (e.g. an
	// unknown value label reported by the schema); may be nil.
	Err error
}

// Error implements error.
func (e *ParseError) Error() string {
	where := fmt.Sprintf("offset %d", e.Offset)
	if e.Near != "" {
		where += fmt.Sprintf(" (near %q)", e.Near)
	}
	return fmt.Sprintf("queryparse: %s at %s", e.Msg, where)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// AsParseError returns the *ParseError inside err, or nil.
func AsParseError(err error) *ParseError {
	var pe *ParseError
	if errors.As(err, &pe) {
		return pe
	}
	return nil
}

// Parse parses text into a query, resolving tables, foreign keys and value
// labels against db. Failures are reported as *ParseError.
func Parse(db *dataset.Database, text string) (*query.Query, error) {
	// A '!' only ever begins "!=": any other is rejected before parsing,
	// so the lexer never fails.
	for i := 0; i < len(text); i++ {
		if text[i] == '!' && (i+1 == len(text) || text[i+1] != '=') {
			return nil, &ParseError{Offset: i, Near: "!", Msg: "stray '!'"}
		}
	}
	p := parser{db: db, text: text}
	p.cur = p.lex(0)
	return p.parse()
}

// token is one lexeme: the byte span text[off:end] of the input, empty at
// the end of input. Tokens are offsets, not strings, so lexing allocates
// nothing.
type token struct {
	off, end int
}

// parser lexes one token ahead of its cursor: it holds the next token and
// the one consumed last, so parsing stores no token list, whatever the
// query's length.
type parser struct {
	db   *dataset.Database
	text string
	cur  token // the next token, not yet consumed
	last token // the token consumed most recently, where errors point
	q    *query.Query
}

// lex returns the token that starts at or after byte offset i: an
// identifier or value, or one of the punctuation tokens . , ( ) = !=.
func (p *parser) lex(i int) token {
	text := p.text
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
		i++
	}
	if i == len(text) {
		return token{off: i, end: i}
	}
	switch text[i] {
	case '.', ',', '(', ')', '=':
		return token{off: i, end: i + 1}
	case '!':
		return token{off: i, end: i + 2} // Parse admits '!' only before '='
	}
	j := i
	for j < len(text) && !isDelim(text[j]) {
		j++
	}
	return token{off: i, end: j}
}

func (p *parser) str(t token) string { return p.text[t.off:t.end] }

// peek returns the text of the next token, or "" at the end of input.
func (p *parser) peek() string { return p.str(p.cur) }

func (p *parser) next() string {
	p.last = p.cur
	p.cur = p.lex(p.cur.end)
	return p.str(p.last)
}

// errHere builds a ParseError at the token just consumed (or the input end).
func (p *parser) errHere(format string, args ...any) *ParseError {
	e := &ParseError{Offset: p.last.off, Near: p.str(p.last), Msg: fmt.Sprintf(format, args...)}
	for _, a := range args {
		if err, ok := a.(error); ok {
			e.Err = err
		}
	}
	return e
}

func (p *parser) expect(t string) error {
	got := p.next()
	if !strings.EqualFold(got, t) {
		if got == "" {
			return p.errHere("expected %q, got end of input", t)
		}
		return p.errHere("expected %q, got %q", t, got)
	}
	return nil
}

// predHint is the predicate list's initial capacity. The served query
// pools of perfbench carry one to four predicates each, so one list
// allocation holds them; a longer WHERE clause grows the list by append.
const predHint = 4

func (p *parser) parse() (*query.Query, error) {
	p.q = query.New()
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	for {
		tableTok := p.cur
		table := p.next()
		alias := p.next()
		if table == "" || alias == "" {
			return nil, p.errHere("FROM needs 'Table alias' pairs")
		}
		if p.db.Table(table) == nil {
			p.last = tableTok // point at the table token, not the alias
			return nil, p.errHere("unknown table %q", table)
		}
		if _, dup := p.q.Vars[alias]; dup {
			return nil, p.errHere("duplicate alias %q", alias)
		}
		p.q.Over(alias, table)
		if p.peek() != "," {
			break
		}
		p.next()
	}
	switch {
	case p.peek() == "":
		return p.q, nil
	case strings.EqualFold(p.peek(), "WHERE"):
		p.next()
		p.q.Preds = make([]query.Pred, 0, predHint)
	default:
		return nil, p.errHere("expected WHERE or end, got %q", p.next())
	}
	for {
		if err := p.clause(); err != nil {
			return nil, err
		}
		if !strings.EqualFold(p.peek(), "AND") {
			break
		}
		p.next()
	}
	if p.peek() != "" {
		return nil, p.errHere("trailing input %q", p.next())
	}
	if err := p.q.Validate(); err != nil {
		return nil, &ParseError{Offset: 0, Msg: "invalid query", Err: err}
	}
	return p.q, nil
}

// ref is a parsed alias.Attr pair.
type ref struct {
	alias, attr string
}

func (p *parser) parseRef() (ref, error) {
	aliasAt := p.cur.off
	alias := p.next()
	if alias == "" {
		return ref{}, p.errHere("expected alias.attr, got end of input")
	}
	if err := p.expect("."); err != nil {
		return ref{}, err
	}
	attr := p.next()
	if attr == "" {
		return ref{}, p.errHere("malformed alias.attr reference")
	}
	if _, ok := p.q.Vars[alias]; !ok {
		return ref{}, &ParseError{Offset: aliasAt, Near: alias, Msg: fmt.Sprintf("unknown alias %q", alias)}
	}
	return ref{alias: alias, attr: attr}, nil
}

func (p *parser) clause() error {
	left, err := p.parseRef()
	if err != nil {
		return err
	}
	switch op := p.next(); {
	case op == "=":
		return p.equalsClause(left)
	case op == "!=":
		v, err := p.value(left)
		if err != nil {
			return err
		}
		p.q.WhereNot(left.alias, left.attr, v)
		return nil
	case strings.EqualFold(op, "IN"):
		vals, err := p.valueList(left)
		if err != nil {
			return err
		}
		p.q.Where(left.alias, left.attr, vals...)
		return nil
	case strings.EqualFold(op, "NOT"):
		if err := p.expect("IN"); err != nil {
			return err
		}
		vals, err := p.valueList(left)
		if err != nil {
			return err
		}
		p.q.WhereNot(left.alias, left.attr, vals...)
		return nil
	case strings.EqualFold(op, "BETWEEN"):
		lo, err := p.value(left)
		if err != nil {
			return err
		}
		if err := p.expect("AND"); err != nil {
			return err
		}
		hi, err := p.value(left)
		if err != nil {
			return err
		}
		if hi < lo {
			return p.errHere("BETWEEN bounds inverted (%d > %d)", lo, hi)
		}
		p.q.WhereBetween(left.alias, left.attr, lo, hi)
		return nil
	case op == "":
		return p.errHere("expected an operator after %s.%s, got end of input", left.alias, left.attr)
	default:
		return p.errHere("unknown operator %q", op)
	}
}

// equalsClause disambiguates "= value", "= alias.PK" and "= alias.attr".
func (p *parser) equalsClause(left ref) error {
	// alias.X = otherAlias.(PK|attr)?
	if _, ok := p.q.Vars[p.peek()]; ok && p.str(p.lex(p.cur.end)) == "." {
		otherAlias := p.next()
		p.next() // "."
		target := p.next()
		if target == "" {
			return p.errHere("expected PK or attribute after %s., got end of input", otherAlias)
		}
		if strings.EqualFold(target, "PK") {
			// Keyjoin through the foreign key named left.attr.
			fromTable := p.db.Table(p.q.Vars[left.alias])
			fk := fromTable.FKIndex(left.attr)
			if fk < 0 {
				return p.errHere("table %s has no foreign key %q", fromTable.Name, left.attr)
			}
			if to, toTable := fromTable.ForeignKeys[fk].To, p.q.Vars[otherAlias]; to != toTable {
				return p.errHere("foreign key %s.%s references %s, not %s", fromTable.Name, left.attr, to, toTable)
			}
			p.q.KeyJoin(left.alias, left.attr, otherAlias)
			return nil
		}
		// Non-key join: both sides must name real attributes, which the
		// query builder does not itself check.
		leftTable := p.db.Table(p.q.Vars[left.alias])
		if leftTable.AttrIndex(left.attr) < 0 {
			return p.errHere("table %s has no attribute %q", leftTable.Name, left.attr)
		}
		rightTable := p.db.Table(p.q.Vars[otherAlias])
		if rightTable.AttrIndex(target) < 0 {
			return p.errHere("table %s has no attribute %q", rightTable.Name, target)
		}
		p.q.NonKeyJoinOn(left.alias, left.attr, otherAlias, target)
		return nil
	}
	v, err := p.value(left)
	if err != nil {
		return err
	}
	p.q.WhereEq(left.alias, left.attr, v)
	return nil
}

// value resolves one value token for the referenced attribute: "#n" is a
// raw code, anything else a label.
func (p *parser) value(r ref) (int32, error) {
	tok := p.next()
	if tok == "" {
		return 0, p.errHere("missing value for %s.%s", r.alias, r.attr)
	}
	tbl := p.db.Table(p.q.Vars[r.alias])
	ai := tbl.AttrIndex(r.attr)
	if ai < 0 {
		return 0, p.errHere("table %s has no attribute %q", tbl.Name, r.attr)
	}
	if rest, ok := strings.CutPrefix(tok, "#"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 || n >= tbl.Attributes[ai].Card() {
			return 0, p.errHere("bad value code %q for %s.%s", tok, tbl.Name, r.attr)
		}
		return int32(n), nil
	}
	code, err := tbl.Code(r.attr, tok)
	if err != nil {
		return 0, p.errHere("%v", err)
	}
	return code, nil
}

func (p *parser) valueList(r ref) ([]int32, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var vals []int32
	for {
		v, err := p.value(r)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		switch tok := p.next(); tok {
		case ",":
		case ")":
			return vals, nil
		case "":
			return nil, p.errHere("unterminated value list for %s.%s", r.alias, r.attr)
		default:
			return nil, p.errHere("expected , or ) in value list, got %q", tok)
		}
	}
}

// isDelim reports whether c ends an identifier or value token.
func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '.', ',', '(', ')', '=', '!':
		return true
	}
	return false
}
