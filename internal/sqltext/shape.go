package sqltext

import (
	"strconv"
	"strings"

	"ediflow/internal/types"
)

// Shape returns the shape of a statement text — the text a plan cache
// keys it by — and the arguments to execute that shape with. Where a
// literal and a parameter are interchangeable, Shape replaces the literal
// by '?' and writes its value into the argument vector at that
// placeholder's place, between the caller's own arguments:
//
//   - an element of an INSERT … VALUES row;
//   - an element of an IN (…) list inside a WHERE clause.
//
// Those are the positions where a statement carries data by the row — a
// bulk load, a tid list — so texts that differ only there share a shape.
// Only a whole element lifts: a number, a string, NULL, TRUE or FALSE on
// its own, never -5 (the parser folds the sign into the literal) or 1 + 2.
// Nothing lifts anywhere else: not in DDL, EXPLAIN, CREATE VIEW or
// trigger text, which is stored or printed; not in a select list, whose
// text names the result column; not in a LIKE pattern, which the VM
// specializes; not an ORDER BY ordinal, a LIMIT or OFFSET, or either side
// of =. A text whose number of '?' differs from len(args) is returned as
// it is, so "missing argument for parameter N" keeps the caller's
// numbering.
//
// When nothing lifts, Shape returns src and args themselves and allocates
// nothing. Otherwise it allocates the shaped text, one argument vector of
// exactly the right length, and a copy of each lifted string; it lexes
// src twice so that it needs no growing buffer.
func Shape(src string, args []types.Value) (string, []types.Value) {
	lifted, params, size := 0, 0, len(src)
	ok := walkShape(src, func(tok Token, end int) {
		if tok.Kind == TokParam {
			params++
			return
		}
		lifted++
		size -= end - tok.Pos - 1
	})
	if !ok || lifted == 0 || params != len(args) {
		return src, args
	}
	var sb strings.Builder
	sb.Grow(size)
	out := make([]types.Value, 0, params+lifted)
	from, user := 0, 0
	walkShape(src, func(tok Token, end int) {
		if tok.Kind == TokParam {
			out = append(out, args[user])
			user++
			return
		}
		v, _ := literalValue(tok)
		out = append(out, v)
		sb.WriteString(src[from:tok.Pos])
		sb.WriteByte('?')
		from = end
	})
	sb.WriteString(src[from:])
	return sb.String(), out
}

// shapeLevel is what Shape tracks for one level of parentheses.
type shapeLevel struct {
	where bool // inside a WHERE clause; nested parentheses inherit it
	list  bool // an INSERT … VALUES row or a WHERE … IN list
}

// maxShapeDepth bounds the levels Shape tracks, so that walking needs no
// allocation; nothing lifts deeper.
const maxShapeDepth = 16

// walkShape lexes src and calls visit, in text order, for every '?' of
// src and every literal Shape lifts; end is the offset just past the
// token. ok=false: src does not lex.
func walkShape(src string, visit func(tok Token, end int)) bool {
	lx := Lexer{src: src}
	var levels [maxShapeDepth]shapeLevel
	var deep shapeLevel // stands for every level past maxShapeDepth
	depth := 0
	start := true                   // the next token leads a statement
	lifting, insert := false, false // the statement's kind
	rows, selected := false, false  // an INSERT past VALUES; past a top-level SELECT
	var prev, pend Token            // pend: a literal that opened a list element …
	pendEnd := -1                   // … and its end, or -1
	for {
		tok, err := lx.Next()
		if err != nil {
			return false
		}
		end := lx.pos
		if pendEnd >= 0 && tok.Kind == TokOp && (tok.Text == "," || tok.Text == ")") {
			visit(pend, pendEnd) // the literal was the whole element
		}
		pendEnd = -1
		if tok.Kind == TokEOF {
			return true
		}
		if start {
			start, depth, rows, selected = false, 0, false, false
			levels[0] = shapeLevel{}
			insert = tok.Kind == TokKeyword && tok.Text == "INSERT"
			lifting = insert || tok.Kind == TokKeyword && (tok.Text == "SELECT" || tok.Text == "UPDATE" || tok.Text == "DELETE")
		}
		lvl := &deep
		if depth < maxShapeDepth {
			lvl = &levels[depth]
		} else {
			deep = shapeLevel{}
		}
		switch tok.Kind {
		case TokParam:
			visit(tok, end)
		case TokOp:
			switch tok.Text {
			case ";":
				start = true
			case "(":
				next := shapeLevel{where: lvl.where, list: lvl.where && prev.Kind == TokKeyword && prev.Text == "IN"}
				if depth == 0 && rows {
					next = shapeLevel{list: true}
				}
				if depth++; depth < maxShapeDepth {
					levels[depth] = next
				}
			case ")":
				if depth > 0 {
					depth--
				}
			}
		case TokKeyword:
			switch tok.Text {
			case "WHERE":
				lvl.where = true
			case "SELECT":
				*lvl = shapeLevel{}
				selected = selected || depth == 0
			case "FROM", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "AS", "SET", "ON", "JOIN":
				lvl.where = false
			case "VALUES":
				// Not the table name of INSERT INTO values, nor a column
				// of INSERT … SELECT values.
				if depth == 0 && insert && !selected && !(prev.Kind == TokKeyword && prev.Text == "INTO") {
					rows = true
				}
			}
		}
		if lifting && lvl.list && prev.Kind == TokOp && (prev.Text == "(" || prev.Text == ",") && liftable(tok) {
			pend, pendEnd = tok, end
		}
		prev = tok
	}
}

// liftable reports whether tok is a literal literalValue converts.
func liftable(tok Token) bool {
	switch tok.Kind {
	case TokString:
		return true
	case TokNumber:
		_, ok := numberValue(tok.Text)
		return ok
	case TokKeyword:
		return tok.Text == "NULL" || tok.Text == "TRUE" || tok.Text == "FALSE"
	}
	return false
}

// literalValue is the value of a literal token: a number, a string, or
// the keyword NULL, TRUE or FALSE. The parser and Shape both convert
// through it, so a lifted literal binds exactly the value the parser
// would have put in the tree. A string is copied out of the source, so
// that a stored value never pins the statement text. ok=false: tok is
// not a literal, or is a number strconv rejects.
func literalValue(tok Token) (types.Value, bool) {
	switch tok.Kind {
	case TokNumber:
		return numberValue(tok.Text)
	case TokString:
		return types.NewString(strings.Clone(tok.Text)), true
	case TokKeyword:
		switch tok.Text {
		case "NULL":
			return types.Null, true
		case "TRUE":
			return types.NewBool(true), true
		case "FALSE":
			return types.NewBool(false), true
		}
	}
	return types.Null, false
}

// numberValue converts a number token: an INT unless it has a fraction
// or an exponent or does not fit in 64 bits, else a FLOAT.
func numberValue(text string) (types.Value, bool) {
	if !strings.ContainsAny(text, ".eE") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return types.NewInt(i), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	return types.NewFloat(f), err == nil
}
