// Package sqltext implements the SQL dialect understood by the EdiFlow
// embedded database: a lexer, an abstract syntax tree, a recursive-descent
// parser and a printer.
//
// The dialect covers the relational algebra the paper's process model is
// built on (selection, projection, cartesian product / joins) plus the
// practical statements the platform needs: DDL (CREATE/DROP TABLE, INDEX,
// materialized VIEW), DML (INSERT/UPDATE/DELETE), SELECT with WHERE,
// JOIN, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, IN/NOT IN with
// subqueries (used by the §VI-A isolation rewrite), scalar functions and
// aggregates, and transaction control.
package sqltext

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp    // operators and punctuation: ( ) , . * = != <> < <= > >= + - / % ?
	TokParam // positional parameter '?'
)

// Token is one lexical token with its source position (byte offset).
// A keyword's Text is its upper-case spelling; an identifier keeps its
// original case; a string's Text is its value, a slice of the source
// unless the literal holds an escaped quote. Whoever keeps a string
// beyond the source's lifetime copies it (literalValue does).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// keywords maps each keyword to its canonical spelling, which a token's
// Text shares, so that recognizing one allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET DISTINCT
		AS JOIN INNER LEFT ON AND OR NOT IN IS NULL LIKE BETWEEN CASE WHEN THEN
		ELSE END TRUE FALSE INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE
		DROP INDEX VIEW MATERIALIZED IF EXISTS PRIMARY KEY UNIQUE BEGIN COMMIT
		ROLLBACK DEFAULT CROSS TRIGGER AFTER CALL COUNT EXPLAIN OF`) {
		if len(kw) > maxKeywordLen {
			panic("sqltext: keyword " + kw + " is longer than maxKeywordLen")
		}
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword, MATERIALIZED.
const maxKeywordLen = 12

// keyword returns the canonical spelling of word if it is a keyword.
// Keywords are ASCII, so the word is upper-cased into a stack buffer and
// looked up without building a string.
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lexer splits SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token. At end of input it returns TokEOF forever.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	case c == '"': // quoted identifier
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return Token{}, fmt.Errorf("sqltext: unterminated quoted identifier at %d", start)
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case c == '?':
		l.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil
	default:
		return l.lexOp(start)
	}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	from := l.pos
	var sb strings.Builder // only once an escaped quote was seen
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
			sb.WriteString(l.src[from : l.pos+1])
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		l.pos++
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqltext: unterminated string literal at %d", start)
}

func (l *Lexer) lexOp(start int) (Token, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>", "||":
		l.pos += 2
		if two == "<>" {
			two = "!="
		}
		return Token{Kind: TokOp, Text: two, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', '+', '-', '/', '%', ';':
		l.pos++
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqltext: unexpected character %q at %d", c, start)
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize lexes all of src (testing convenience).
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
