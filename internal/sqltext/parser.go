package sqltext

import (
	"fmt"
	"strings"

	"ediflow/internal/types"
)

// Parser is a recursive-descent parser for the EdiFlow SQL dialect.
type Parser struct {
	lex    *Lexer
	tok    Token
	peeked *Token
	params int
	src    string
}

// Parse parses a single statement (an optional trailing ';' is allowed).
func Parse(src string) (Statement, error) {
	p := &Parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokOp && p.tok.Text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.tok.Text)
	}
	return st, nil
}

// ParseScript parses a ';'-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p := &Parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var out []Statement
	for p.tok.Kind != TokEOF {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		for p.tok.Kind == TokOp && p.tok.Text == ";" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used by the workflow
// engine for process conditions).
func ParseExpr(src string) (Expr, error) {
	p := &Parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.tok.Text)
	}
	return e, nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqltext: %s (at byte %d of %q)", fmt.Sprintf(format, args...), p.tok.Pos, clip(p.src))
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

func (p *Parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peek() (Token, error) {
	if p.peeked == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) acceptKeyword(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.tok.Text)
	}
	return p.advance()
}

// acceptAliasAS consumes an alias-introducing AS, but leaves `AS OF`
// alone — that is the SELECT-level snapshot clause, not an alias.
func (p *Parser) acceptAliasAS() (bool, error) {
	if !p.isKeyword("AS") {
		return false, nil
	}
	nxt, err := p.peek()
	if err != nil {
		return false, err
	}
	if nxt.Kind == TokKeyword && nxt.Text == "OF" {
		return false, nil
	}
	return true, p.advance()
}

func (p *Parser) acceptOp(op string) (bool, error) {
	if p.tok.Kind == TokOp && p.tok.Text == op {
		return true, p.advance()
	}
	return false, nil
}

func (p *Parser) expectOp(op string) error {
	if p.tok.Kind != TokOp || p.tok.Text != op {
		return p.errorf("expected %q, got %q", op, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) expectIdent() (string, error) {
	// Non-reserved keywords may be used as identifiers in column positions;
	// we keep it strict except for a small allowlist that shows up in the
	// paper's schemas (e.g. a column named "key" or "count").
	if p.tok.Kind == TokIdent {
		name := p.tok.Text
		return name, p.advance()
	}
	if p.tok.Kind == TokKeyword && (p.tok.Text == "COUNT" || identishKeyword(p.tok.Text)) {
		name := strings.ToLower(p.tok.Text)
		return name, p.advance()
	}
	return "", p.errorf("expected identifier, got %q", p.tok.Text)
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("EXPLAIN"):
		return p.parseExplain()
	case p.isKeyword("BEGIN"):
		return &Begin{}, p.advance()
	case p.isKeyword("COMMIT"):
		return &Commit{}, p.advance()
	case p.isKeyword("ROLLBACK"):
		return &Rollback{}, p.advance()
	}
	return nil, p.errorf("expected statement, got %q", p.tok.Text)
}

func (p *Parser) parseExplain() (Statement, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	var inner Statement
	var err error
	switch {
	case p.isKeyword("SELECT"):
		inner, err = p.parseSelect()
	case p.isKeyword("UPDATE"):
		inner, err = p.parseUpdate()
	case p.isKeyword("DELETE"):
		inner, err = p.parseDelete()
	default:
		return nil, p.errorf("EXPLAIN supports SELECT, UPDATE or DELETE")
	}
	if err != nil {
		return nil, err
	}
	return &Explain{Stmt: inner}, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := false
	if ok, err := p.acceptKeyword("UNIQUE"); err != nil {
		return nil, err
	} else if ok {
		unique = true
	}
	switch {
	case p.isKeyword("TABLE"):
		if unique {
			return nil, p.errorf("UNIQUE applies to indexes only")
		}
		return p.parseCreateTable()
	case p.isKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	case p.isKeyword("MATERIALIZED"), p.isKeyword("VIEW"):
		if unique {
			return nil, p.errorf("UNIQUE applies to indexes only")
		}
		return p.parseCreateView()
	case p.isKeyword("TRIGGER"):
		if unique {
			return nil, p.errorf("UNIQUE applies to indexes only")
		}
		return p.parseCreateTrigger()
	}
	return nil, p.errorf("expected TABLE, INDEX, VIEW or TRIGGER after CREATE")
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTable{}
	var err error
	if st.IfNotExists, err = p.acceptIfNotExists(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return col, err
	}
	col.Name = name
	if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
		return col, p.errorf("expected column type for %q", name)
	}
	kind, err := types.KindFromName(p.tok.Text)
	if err != nil {
		return col, p.errorf("column %q: %v", name, err)
	}
	col.Type = kind
	if err := p.advance(); err != nil {
		return col, err
	}
	// Optional (size) after e.g. VARCHAR(32): parsed and ignored.
	if ok, err := p.acceptOp("("); err != nil {
		return col, err
	} else if ok {
		if p.tok.Kind != TokNumber {
			return col, p.errorf("expected size in type of column %q", name)
		}
		if err := p.advance(); err != nil {
			return col, err
		}
		if err := p.expectOp(")"); err != nil {
			return col, err
		}
	}
	for {
		switch {
		case p.isKeyword("PRIMARY"):
			if err := p.advance(); err != nil {
				return col, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.isKeyword("UNIQUE"):
			if err := p.advance(); err != nil {
				return col, err
			}
			col.Unique = true
		case p.isKeyword("NOT"):
			if err := p.advance(); err != nil {
				return col, err
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

// acceptIfNotExists consumes an optional IF NOT EXISTS.
func (p *Parser) acceptIfNotExists() (bool, error) {
	if ok, err := p.acceptKeyword("IF"); err != nil || !ok {
		return false, err
	}
	if err := p.expectKeyword("NOT"); err != nil {
		return false, err
	}
	return true, p.expectKeyword("EXISTS")
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	st := &CreateIndex{Unique: unique}
	var err error
	if st.IfNotExists, err = p.acceptIfNotExists(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	st.Table, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	st := &CreateView{}
	if ok, err := p.acceptKeyword("MATERIALIZED"); err != nil {
		return nil, err
	} else if ok {
		st.Materialized = true
	}
	if err := p.expectKeyword("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	st.Query = sel
	return st, nil
}

func (p *Parser) parseCreateTrigger() (Statement, error) {
	if err := p.expectKeyword("TRIGGER"); err != nil {
		return nil, err
	}
	st := &CreateTrigger{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("AFTER"); err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("INSERT"), p.isKeyword("UPDATE"), p.isKeyword("DELETE"):
		st.Event = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected INSERT, UPDATE or DELETE after AFTER")
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	st.Table, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CALL"); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokString {
		return nil, p.errorf("expected handler name string after CALL")
	}
	st.Handler = strings.Clone(p.tok.Text)
	return st, p.advance()
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	isView := false
	switch {
	case p.isKeyword("TABLE"):
	case p.isKeyword("VIEW"):
		isView = true
	default:
		return nil, p.errorf("expected TABLE or VIEW after DROP")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	ifExists := false
	if ok, err := p.acceptKeyword("IF"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if isView {
		return &DropView{Name: name, IfExists: ifExists}, nil
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	st := &Insert{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if ok, err := p.acceptOp("("); err != nil {
		return nil, err
	} else if ok {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Query = sel
		return st, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return st, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	st := &Update{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, Value: e})
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st := &Delete{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Select{}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		st.Distinct = true
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	// FROM is optional (SELECT 1+1).
	if ok, err := p.acceptKeyword("FROM"); err != nil {
		return nil, err
	} else if ok {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = &tr
		for {
			join, ok, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			st.Joins = append(st.Joins, join)
		}
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKeyword("HAVING"); err != nil {
		return nil, err
	} else if ok {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if ok, err := p.acceptKeyword("ASC"); err != nil {
				return nil, err
			} else if ok {
				// explicit ASC: nothing to record
				_ = ok
			}
			st.OrderBy = append(st.OrderBy, item)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKeyword("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	if ok, err := p.acceptKeyword("OFFSET"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Offset = e
	}
	// AS OF <seq>: time-based isolation — read as of an MVCC commit-seq.
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("OF"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.AsOf = e
	}
	return st, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.tok.Kind == TokOp && p.tok.Text == "*" {
		return SelectItem{Star: true}, p.advance()
	}
	// `t.*`
	if p.tok.Kind == TokIdent {
		if nxt, err := p.peek(); err != nil {
			return SelectItem{}, err
		} else if nxt.Kind == TokOp && nxt.Text == "." {
			// look one more ahead is awkward with single-token peek; parse
			// the qualified form via expression and special-case the star.
			tbl := p.tok.Text
			if err := p.advance(); err != nil { // consume ident
				return SelectItem{}, err
			}
			if err := p.advance(); err != nil { // consume '.'
				return SelectItem{}, err
			}
			if p.tok.Kind == TokOp && p.tok.Text == "*" {
				return SelectItem{Star: true, Table: tbl}, p.advance()
			}
			col, err := p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
			e, err := p.continueExpr(&ColumnRef{Table: tbl, Column: col})
			if err != nil {
				return SelectItem{}, err
			}
			return p.finishSelectItem(e)
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return p.finishSelectItem(e)
}

func (p *Parser) finishSelectItem(e Expr) (SelectItem, error) {
	item := SelectItem{Expr: e}
	if ok, err := p.acceptAliasAS(); err != nil {
		return item, err
	} else if ok {
		a, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if p.tok.Kind == TokIdent {
		// bare alias
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return item, err
		}
	}
	return item, nil
}

// continueExpr resumes precedence-climbing after a primary expression that
// was already consumed (used by the t.* lookahead in parseSelectItem).
func (p *Parser) continueExpr(primary Expr) (Expr, error) {
	e, err := p.parsePostfix(primary)
	if err != nil {
		return nil, err
	}
	return p.parseBinaryFrom(e, 1)
}

func (p *Parser) parseTableRef() (TableRef, error) {
	var tr TableRef
	if ok, err := p.acceptOp("("); err != nil {
		return tr, err
	} else if ok {
		sel, err := p.parseSelect()
		if err != nil {
			return tr, err
		}
		if err := p.expectOp(")"); err != nil {
			return tr, err
		}
		tr.Subquery = sel
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return tr, err
		}
		tr.Table = name
	}
	if ok, err := p.acceptAliasAS(); err != nil {
		return tr, err
	} else if ok {
		a, err := p.expectIdent()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.tok.Kind == TokIdent {
		tr.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return tr, err
		}
	}
	if tr.Subquery != nil && tr.Alias == "" {
		return tr, p.errorf("subquery in FROM requires an alias")
	}
	return tr, nil
}

func (p *Parser) parseJoin() (JoinClause, bool, error) {
	var jc JoinClause
	switch {
	case p.isKeyword("JOIN"), p.isKeyword("INNER"):
		jc.Kind = "INNER"
		if p.isKeyword("INNER") {
			if err := p.advance(); err != nil {
				return jc, false, err
			}
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return jc, false, err
		}
	case p.isKeyword("LEFT"):
		jc.Kind = "LEFT"
		if err := p.advance(); err != nil {
			return jc, false, err
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return jc, false, err
		}
	case p.isKeyword("CROSS"):
		jc.Kind = "CROSS"
		if err := p.advance(); err != nil {
			return jc, false, err
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return jc, false, err
		}
	case p.tok.Kind == TokOp && p.tok.Text == ",":
		// Cartesian product: FROM a, b (the paper's algebra).
		jc.Kind = "CROSS"
		if err := p.advance(); err != nil {
			return jc, false, err
		}
	default:
		return jc, false, nil
	}
	right, err := p.parseTableRef()
	if err != nil {
		return jc, false, err
	}
	jc.Right = right
	if jc.Kind != "CROSS" {
		if err := p.expectKeyword("ON"); err != nil {
			return jc, false, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return jc, false, err
		}
		jc.On = on
	}
	return jc, true, nil
}

// ------------------------------------------------------------- expressions

// Binary operator precedence (higher binds tighter).
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "!=", "<", "<=", ">", ">=":
		return 4
	case "+", "-", "||":
		return 5
	case "*", "/", "%":
		return 6
	}
	return 0
}

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseBinaryFrom(e, 1)
}

func (p *Parser) parseBinaryFrom(left Expr, minPrec int) (Expr, error) {
	for {
		// Postfix predicates bind looser than comparisons but tighter than
		// AND/OR: handle IN / IS / LIKE / BETWEEN / NOT-variants here.
		if minPrec <= 3 {
			pred, matched, err := p.parsePredicateSuffix(left)
			if err != nil {
				return nil, err
			}
			if matched {
				left = pred
				continue
			}
		}
		op := ""
		if p.tok.Kind == TokOp {
			op = p.tok.Text
		} else if p.tok.Kind == TokKeyword && (p.tok.Text == "AND" || p.tok.Text == "OR") {
			op = p.tok.Text
		}
		prec := precedence(op)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		right, err = p.parseBinaryFrom(right, prec+1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

// parsePredicateSuffix handles x IN (...), x IS NULL, x LIKE y,
// x BETWEEN a AND b, and their NOT forms.
func (p *Parser) parsePredicateSuffix(x Expr) (Expr, bool, error) {
	not := false
	if p.isKeyword("NOT") {
		nxt, err := p.peek()
		if err != nil {
			return nil, false, err
		}
		if nxt.Kind == TokKeyword && (nxt.Text == "IN" || nxt.Text == "LIKE" || nxt.Text == "BETWEEN") {
			not = true
			if err := p.advance(); err != nil {
				return nil, false, err
			}
		} else {
			return nil, false, nil
		}
	}
	switch {
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, false, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, false, err
		}
		in := &InExpr{X: x, Not: not}
		if p.isKeyword("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, false, err
			}
			in.Query = sel
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, false, err
				}
				in.List = append(in.List, e)
				if ok, err := p.acceptOp(","); err != nil {
					return nil, false, err
				} else if !ok {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, false, err
		}
		return in, true, nil
	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, false, err
		}
		isNot := false
		if ok, err := p.acceptKeyword("NOT"); err != nil {
			return nil, false, err
		} else if ok {
			isNot = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, false, err
		}
		return &IsNull{X: x, Not: isNot}, true, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, false, err
		}
		pat, err := p.parseUnary()
		if err != nil {
			return nil, false, err
		}
		return &Like{X: x, Not: not, Pattern: pat}, true, nil
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, false, err
		}
		lo, err := p.parseUnary()
		if err != nil {
			return nil, false, err
		}
		lo, err = p.parseBinaryFrom(lo, 5) // arithmetic only, stop before AND
		if err != nil {
			return nil, false, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, false, err
		}
		hi, err := p.parseUnary()
		if err != nil {
			return nil, false, err
		}
		hi, err = p.parseBinaryFrom(hi, 5)
		if err != nil {
			return nil, false, err
		}
		return &Between{X: x, Not: not, Lo: lo, Hi: hi}, true, nil
	}
	if not {
		return nil, false, p.errorf("expected IN, LIKE or BETWEEN after NOT")
	}
	return nil, false, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch {
	case p.tok.Kind == TokOp && p.tok.Text == "-":
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal for readability of printed SQL.
		if lit, ok := x.(*Literal); ok {
			if v, err := types.Neg(lit.Value); err == nil {
				return &Literal{Value: v}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	case p.tok.Kind == TokOp && p.tok.Text == "+":
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	case p.isKeyword("NOT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// NOT binds looser than comparisons and predicate suffixes
		// (IN / IS / LIKE / BETWEEN) but tighter than AND/OR:
		// NOT a = b means NOT (a = b); NOT a IN (..) means NOT (a IN (..)).
		x, err = p.parseBinaryFrom(x, 3)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePostfix(prim)
}

// parsePostfix currently has nothing to chain (no array subscripts); it is
// a hook kept for symmetry with continueExpr.
func (p *Parser) parsePostfix(e Expr) (Expr, error) { return e, nil }

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokNumber, p.tok.Kind == TokString,
		p.isKeyword("NULL"), p.isKeyword("TRUE"), p.isKeyword("FALSE"):
		tok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, ok := literalValue(tok)
		if !ok {
			return nil, p.errorf("bad number %q", tok.Text)
		}
		return &Literal{Value: v}, nil
	case p.tok.Kind == TokParam:
		idx := p.params
		p.params++
		return &Param{Index: idx}, p.advance()
	case p.isKeyword("CASE"):
		return p.parseCase()
	case p.isKeyword("EXISTS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseExistsBody(false)
	case p.isKeyword("COUNT"):
		// COUNT is a keyword so COUNT(*) can be lexed; with parentheses it
		// is the aggregate, bare it is a column named "count" (the paper's
		// schemas use such names).
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokOp && p.tok.Text == "(" {
			return p.parseFuncArgs("COUNT")
		}
		return &ColumnRef{Column: "count"}, nil
	case p.tok.Kind == TokKeyword && identishKeyword(p.tok.Text):
		// Non-reserved keywords usable as column names in expressions.
		name := strings.ToLower(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokOp && p.tok.Text == "." {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	case p.tok.Kind == TokOp && p.tok.Text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Subquery{Query: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// function call?
		if p.tok.Kind == TokOp && p.tok.Text == "(" {
			return p.parseFuncArgs(asciiUpper(name))
		}
		// qualified column?
		if p.tok.Kind == TokOp && p.tok.Text == "." {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	}
	return nil, p.errorf("expected expression, got %q", p.tok.Text)
}

// asciiUpper upper-cases the ASCII letters of a function name and keeps
// every other byte: the name prints back as it lexed, whatever its bytes.
func asciiUpper(name string) string {
	b := []byte(name)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

func (p *Parser) parseFuncArgs(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.tok.Kind == TokOp && p.tok.Text == "*" {
		fc.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		fc.Distinct = true
	}
	if p.tok.Kind == TokOp && p.tok.Text == ")" {
		return fc, p.advance()
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if ok, err := p.acceptKeyword("ELSE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

// parseExistsBody parses "(SELECT ...)" after EXISTS.
func (p *Parser) parseExistsBody(not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &Exists{Not: not, Query: sel}, nil
}

// identishKeyword lists the non-reserved keywords accepted as names: in
// expressions as column names, and in expectIdent, which also takes COUNT
// (in expressions COUNT has its own disambiguation against the aggregate).
func identishKeyword(kw string) bool {
	switch kw {
	case "KEY", "VALUES", "SET", "INDEX", "VIEW", "DEFAULT", "CALL", "AFTER":
		return true
	}
	return false
}
