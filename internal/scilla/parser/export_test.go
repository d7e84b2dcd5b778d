package parser

import (
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/lexer"
)

// The parser's tests are an external package; these are their
// standalone parsers.

// ParseExpr parses a standalone expression.
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return e, nil
}

// ParseType parses a standalone type.
func ParseType(src string) (ast.Type, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return t, nil
}
