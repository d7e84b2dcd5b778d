// Package parser implements a recursive-descent parser for the Scilla
// subset defined in internal/scilla/ast.
package parser

import (
	"fmt"
	"math/big"
	"strings"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/lexer"
)

// Error is a parse error with position information.
type Error struct {
	Msg  string
	Line int
	Col  int
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parser consumes a token stream and produces AST nodes.
type Parser struct {
	toks []lexer.Token
	pos  int
	src  string
}

// ParseModule parses a complete Scilla module from source text.
func ParseModule(src string) (*ast.Module, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	m, err := p.module()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	m.Source = src
	return m, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() lexer.Token {
	if p.atEOF() {
		last := lexer.Token{Kind: lexer.EOF}
		if len(p.toks) > 0 {
			prev := p.toks[len(p.toks)-1]
			last.Line, last.Col = prev.Line, prev.Col
		}
		return last
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(off int) lexer.Token {
	if p.pos+off >= len(p.toks) {
		return lexer.Token{Kind: lexer.EOF}
	}
	return p.toks[p.pos+off]
}

func (p *Parser) advance() lexer.Token {
	t := p.cur()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return &Error{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

func (p *Parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == lexer.Keyword && t.Text == kw
}

func (p *Parser) expect(k lexer.Kind, what string) (lexer.Token, error) {
	if !p.at(k) {
		return lexer.Token{}, p.errf("expected %s, found %q", what, p.cur().String())
	}
	return p.advance(), nil
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %q, found %q", kw, p.cur().String())
	}
	p.advance()
	return nil
}

func (p *Parser) pos2() ast.Pos {
	t := p.cur()
	return ast.Pos{Line: t.Line, Col: t.Col}
}

// ident accepts a lower-case identifier.
func (p *Parser) ident(what string) (string, error) {
	t, err := p.expect(lexer.Ident, what)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

// anyIdent accepts either a lower-case or capitalised identifier.
func (p *Parser) anyIdent(what string) (string, error) {
	if p.at(lexer.Ident) || p.at(lexer.CIdent) {
		return p.advance().Text, nil
	}
	return "", p.errf("expected %s, found %q", what, p.cur().String())
}

// --- Module structure ---

func (p *Parser) module() (*ast.Module, error) {
	m := &ast.Module{}
	if err := p.expectKeyword("scilla_version"); err != nil {
		return nil, err
	}
	vt, err := p.expect(lexer.IntTok, "version number")
	if err != nil {
		return nil, err
	}
	fmt.Sscanf(vt.Text, "%d", &m.Version)

	if p.atKeyword("library") {
		lib, err := p.library()
		if err != nil {
			return nil, err
		}
		m.Lib = lib
	}
	c, err := p.contract()
	if err != nil {
		return nil, err
	}
	m.Contract = *c
	return m, nil
}

func (p *Parser) library() (*ast.Library, error) {
	p.advance() // library
	name, err := p.expect(lexer.CIdent, "library name")
	if err != nil {
		return nil, err
	}
	lib := &ast.Library{Name: name.Text}
	for {
		switch {
		case p.atKeyword("let"):
			p.advance()
			id, err := p.ident("definition name")
			if err != nil {
				return nil, err
			}
			var ty ast.Type
			if p.at(lexer.Colon) {
				p.advance()
				ty, err = p.parseType()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(lexer.Eq, "'='"); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			lib.Defs = append(lib.Defs, ast.LibDef{Name: id, Ty: ty, Expr: e})
		case p.atKeyword("type"):
			p.advance()
			tname, err := p.expect(lexer.CIdent, "type name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.Eq, "'='"); err != nil {
				return nil, err
			}
			td := ast.TypeDef{Name: tname.Text}
			for p.at(lexer.Bar) {
				p.advance()
				cname, err := p.expect(lexer.CIdent, "constructor name")
				if err != nil {
					return nil, err
				}
				cd := ast.ConstrDef{Name: cname.Text}
				if p.atKeyword("of") {
					p.advance()
					for p.startsAtomType() {
						at, err := p.atomType()
						if err != nil {
							return nil, err
						}
						cd.Args = append(cd.Args, at)
					}
				}
				td.Constrs = append(td.Constrs, cd)
			}
			if len(td.Constrs) == 0 {
				return nil, p.errf("type %s has no constructors", tname.Text)
			}
			lib.Types = append(lib.Types, td)
		default:
			return lib, nil
		}
	}
}

func (p *Parser) contract() (*ast.Contract, error) {
	if err := p.expectKeyword("contract"); err != nil {
		return nil, err
	}
	name, err := p.expect(lexer.CIdent, "contract name")
	if err != nil {
		return nil, err
	}
	c := &ast.Contract{Name: name.Text}
	if _, err := p.expect(lexer.LParen, "'('"); err != nil {
		return nil, err
	}
	c.Params, err = p.params()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen, "')'"); err != nil {
		return nil, err
	}
	for p.atKeyword("field") {
		p.advance()
		fname, err := p.ident("field name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon, "':'"); err != nil {
			return nil, err
		}
		fty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Eq, "'='"); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Fields = append(c.Fields, ast.Field{Name: fname, Type: fty, Init: init})
	}
	for p.atKeyword("transition") {
		pos := p.pos2()
		p.advance()
		tname, err := p.anyIdent("transition name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.LParen, "'('"); err != nil {
			return nil, err
		}
		tparams, err := p.params()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen, "')'"); err != nil {
			return nil, err
		}
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("end"); err != nil {
			return nil, err
		}
		c.Transitions = append(c.Transitions, ast.Transition{
			Name: tname, Params: tparams, Body: body, Pos: pos,
		})
	}
	return c, nil
}

func (p *Parser) params() ([]ast.Param, error) {
	var ps []ast.Param
	if p.at(lexer.RParen) {
		return ps, nil
	}
	for {
		id, err := p.ident("parameter name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon, "':'"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ps = append(ps, ast.Param{Name: id, Type: ty})
		if !p.at(lexer.Comma) {
			return ps, nil
		}
		p.advance()
	}
}

// --- Types ---

func (p *Parser) startsAtomType() bool {
	return p.at(lexer.CIdent) || p.at(lexer.TIdent) || p.at(lexer.LParen)
}

func (p *Parser) parseType() (ast.Type, error) {
	t, err := p.appType()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.Arrow) {
		p.advance()
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ast.FunType{Arg: t, Ret: ret}, nil
	}
	return t, nil
}

func (p *Parser) appType() (ast.Type, error) {
	if p.at(lexer.CIdent) && p.cur().Text == "Map" {
		p.advance()
		k, err := p.atomType()
		if err != nil {
			return nil, err
		}
		v, err := p.atomType()
		if err != nil {
			return nil, err
		}
		return ast.MapType{Key: k, Val: v}, nil
	}
	if p.at(lexer.CIdent) {
		name := p.advance().Text
		if prim, ok := ast.PrimTypeByName(name); ok {
			return prim, nil
		}
		var args []ast.Type
		for p.startsAtomType() {
			a, err := p.atomType()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		return ast.ADTType{Name: name, Args: args}, nil
	}
	return p.atomType()
}

func (p *Parser) atomType() (ast.Type, error) {
	switch {
	case p.at(lexer.CIdent):
		name := p.advance().Text
		if name == "Map" {
			return nil, p.errf("Map type must be parenthesised in this position")
		}
		if prim, ok := ast.PrimTypeByName(name); ok {
			return prim, nil
		}
		return ast.ADTType{Name: name}, nil
	case p.at(lexer.TIdent):
		return ast.TypeVar{Name: p.advance().Text}, nil
	case p.at(lexer.LParen):
		p.advance()
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen, "')'"); err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, p.errf("expected a type, found %q", p.cur().String())
}

// --- Statements ---

func (p *Parser) stmts() ([]ast.Stmt, error) {
	var out []ast.Stmt
	for {
		if !p.startsStmt() {
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.at(lexer.Semi) {
			p.advance()
			continue
		}
		return out, nil
	}
}

func (p *Parser) startsStmt() bool {
	t := p.cur()
	switch t.Kind {
	case lexer.Ident:
		return true
	case lexer.Keyword:
		switch t.Text {
		case "match", "accept", "send", "event", "throw", "delete":
			return true
		}
	}
	return false
}

func (p *Parser) stmt() (ast.Stmt, error) {
	pos := p.pos2()
	base := func() ast.Stmt { return nil }
	_ = base
	switch {
	case p.atKeyword("accept"):
		p.advance()
		return newAccept(pos), nil
	case p.atKeyword("send"):
		p.advance()
		a, err := p.ident("send argument")
		if err != nil {
			return nil, err
		}
		return newSend(pos, a), nil
	case p.atKeyword("event"):
		p.advance()
		a, err := p.ident("event argument")
		if err != nil {
			return nil, err
		}
		return newEvent(pos, a), nil
	case p.atKeyword("throw"):
		p.advance()
		arg := ""
		if p.at(lexer.Ident) {
			arg = p.advance().Text
		}
		return newThrow(pos, arg), nil
	case p.atKeyword("delete"):
		p.advance()
		m, err := p.ident("map name")
		if err != nil {
			return nil, err
		}
		keys, err := p.mapKeys()
		if err != nil {
			return nil, err
		}
		if len(keys) == 0 {
			return nil, p.errf("delete requires at least one key")
		}
		return newMapDelete(pos, m, keys), nil
	case p.atKeyword("match"):
		p.advance()
		scrut, err := p.ident("match scrutinee")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("with"); err != nil {
			return nil, err
		}
		var arms []ast.StmtMatchArm
		for p.at(lexer.Bar) {
			p.advance()
			pat, err := p.pattern()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.DArrow, "'=>'"); err != nil {
				return nil, err
			}
			body, err := p.stmts()
			if err != nil {
				return nil, err
			}
			arms = append(arms, ast.StmtMatchArm{Pat: pat, Body: body})
		}
		if err := p.expectKeyword("end"); err != nil {
			return nil, err
		}
		if len(arms) == 0 {
			return nil, p.errf("match statement has no arms")
		}
		return newMatchStmt(pos, scrut, arms), nil
	}
	// Starts with an identifier.
	id, err := p.ident("statement")
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case lexer.LArrow:
		p.advance()
		switch {
		case p.at(lexer.Amp):
			p.advance()
			name, err := p.expect(lexer.CIdent, "blockchain component")
			if err != nil {
				return nil, err
			}
			return newReadBC(pos, id, name.Text), nil
		case p.atKeyword("exists"):
			p.advance()
			m, err := p.ident("map name")
			if err != nil {
				return nil, err
			}
			keys, err := p.mapKeys()
			if err != nil {
				return nil, err
			}
			if len(keys) == 0 {
				return nil, p.errf("exists requires at least one key")
			}
			return newMapGet(pos, id, m, keys, true), nil
		default:
			f, err := p.ident("field name")
			if err != nil {
				return nil, err
			}
			keys, err := p.mapKeys()
			if err != nil {
				return nil, err
			}
			if len(keys) > 0 {
				return newMapGet(pos, id, f, keys, false), nil
			}
			return newLoad(pos, id, f), nil
		}
	case lexer.Assign:
		p.advance()
		rhs, err := p.ident("value identifier")
		if err != nil {
			return nil, err
		}
		return newStore(pos, id, rhs), nil
	case lexer.LBracket:
		keys, err := p.mapKeys()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Assign, "':='"); err != nil {
			return nil, err
		}
		rhs, err := p.ident("value identifier")
		if err != nil {
			return nil, err
		}
		return newMapUpdate(pos, id, keys, rhs), nil
	case lexer.Eq:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return newBind(pos, id, e), nil
	}
	return nil, p.errf("malformed statement after %q", id)
}

func (p *Parser) mapKeys() ([]string, error) {
	var keys []string
	for p.at(lexer.LBracket) {
		p.advance()
		k, err := p.ident("map key identifier")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RBracket, "']'"); err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// --- Patterns ---

func (p *Parser) pattern() (ast.Pattern, error) {
	switch {
	case p.at(lexer.Underscore):
		p.advance()
		return ast.WildPat{}, nil
	case p.at(lexer.Ident):
		return ast.BindPat{Name: p.advance().Text}, nil
	case p.at(lexer.CIdent):
		name := p.advance().Text
		var subs []ast.Pattern
		for p.startsPatternAtom() {
			sub, err := p.patternAtom()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		return ast.ConstrPat{Name: name, Sub: subs}, nil
	case p.at(lexer.LParen):
		return p.patternAtom()
	}
	return nil, p.errf("expected a pattern, found %q", p.cur().String())
}

func (p *Parser) startsPatternAtom() bool {
	switch p.cur().Kind {
	case lexer.Underscore, lexer.Ident, lexer.CIdent, lexer.LParen:
		return true
	}
	return false
}

func (p *Parser) patternAtom() (ast.Pattern, error) {
	switch {
	case p.at(lexer.Underscore):
		p.advance()
		return ast.WildPat{}, nil
	case p.at(lexer.Ident):
		return ast.BindPat{Name: p.advance().Text}, nil
	case p.at(lexer.CIdent):
		return ast.ConstrPat{Name: p.advance().Text}, nil
	case p.at(lexer.LParen):
		p.advance()
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen, "')'"); err != nil {
			return nil, err
		}
		return pat, nil
	}
	return nil, p.errf("expected a pattern, found %q", p.cur().String())
}

// --- Expressions ---

var intPrims = map[string]ast.PrimType{
	"Int32": ast.TyInt32, "Int64": ast.TyInt64,
	"Int128": ast.TyInt128, "Int256": ast.TyInt256,
	"Uint32": ast.TyUint32, "Uint64": ast.TyUint64,
	"Uint128": ast.TyUint128, "Uint256": ast.TyUint256,
}

func (p *Parser) expr() (ast.Expr, error) {
	pos := p.pos2()
	switch {
	case p.atKeyword("let"):
		p.advance()
		name, err := p.ident("let binder")
		if err != nil {
			return nil, err
		}
		var ty ast.Type
		if p.at(lexer.Colon) {
			p.advance()
			ty, err = p.parseType()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(lexer.Eq, "'='"); err != nil {
			return nil, err
		}
		bound, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return newLet(pos, name, ty, bound, body), nil
	case p.atKeyword("fun"):
		p.advance()
		if _, err := p.expect(lexer.LParen, "'('"); err != nil {
			return nil, err
		}
		param, err := p.ident("function parameter")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon, "':'"); err != nil {
			return nil, err
		}
		pty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen, "')'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.DArrow, "'=>'"); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return newFun(pos, param, pty, body), nil
	case p.atKeyword("tfun"):
		p.advance()
		tv, err := p.expect(lexer.TIdent, "type variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.DArrow, "'=>'"); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return newTFun(pos, tv.Text, body), nil
	case p.at(lexer.At):
		p.advance()
		name, err := p.ident("instantiated identifier")
		if err != nil {
			return nil, err
		}
		var targs []ast.Type
		for p.startsAtomType() {
			t, err := p.atomType()
			if err != nil {
				return nil, err
			}
			targs = append(targs, t)
		}
		if len(targs) == 0 {
			return nil, p.errf("type application requires at least one type")
		}
		return newTApp(pos, name, targs), nil
	case p.atKeyword("builtin"):
		p.advance()
		name, err := p.ident("builtin name")
		if err != nil {
			return nil, err
		}
		var args []string
		for p.at(lexer.Ident) {
			args = append(args, p.advance().Text)
		}
		if len(args) == 0 {
			return nil, p.errf("builtin %s requires at least one argument", name)
		}
		return newBuiltin(pos, name, args), nil
	case p.atKeyword("match"):
		p.advance()
		scrut, err := p.ident("match scrutinee")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("with"); err != nil {
			return nil, err
		}
		var arms []ast.MatchArm
		for p.at(lexer.Bar) {
			p.advance()
			pat, err := p.pattern()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.DArrow, "'=>'"); err != nil {
				return nil, err
			}
			body, err := p.expr()
			if err != nil {
				return nil, err
			}
			arms = append(arms, ast.MatchArm{Pat: pat, Body: body})
		}
		if err := p.expectKeyword("end"); err != nil {
			return nil, err
		}
		if len(arms) == 0 {
			return nil, p.errf("match expression has no arms")
		}
		return newMatchExpr(pos, scrut, arms), nil
	case p.at(lexer.LBrace):
		return p.msgExpr()
	case p.at(lexer.StringTok):
		t := p.advance()
		return newLit(pos, ast.StrLit(t.Text)), nil
	case p.at(lexer.HexTok):
		t := p.advance()
		b, err := hexBytes(t.Text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return newLit(pos, ast.ByStrLit(b)), nil
	case p.at(lexer.CIdent):
		name := p.cur().Text
		// Typed integer literal: `Uint128 42`.
		if prim, ok := intPrims[name]; ok && p.peekAt(1).Kind == lexer.IntTok {
			p.advance()
			it := p.advance()
			v, ok := new(big.Int).SetString(it.Text, 10)
			if !ok {
				return nil, p.errf("malformed integer %q", it.Text)
			}
			if !ast.InRange(prim, v) {
				return nil, p.errf("integer %s out of range for %s", it.Text, name)
			}
			return newLit(pos, ast.BigIntLit(prim, v)), nil
		}
		if name == "BNum" && p.peekAt(1).Kind == lexer.IntTok {
			p.advance()
			it := p.advance()
			v, ok := new(big.Int).SetString(it.Text, 10)
			if !ok || v.Sign() < 0 {
				return nil, p.errf("malformed block number %q", it.Text)
			}
			return newLit(pos, ast.Literal{Type: ast.TyBNum, Int: v}), nil
		}
		// Constructor application, including `Emp kt vt`.
		p.advance()
		if name == "Emp" {
			k, err := p.atomType()
			if err != nil {
				return nil, err
			}
			v, err := p.atomType()
			if err != nil {
				return nil, err
			}
			return newConstr(pos, "Emp", []ast.Type{k, v}, nil), nil
		}
		var targs []ast.Type
		if p.at(lexer.LBrace) {
			p.advance()
			for !p.at(lexer.RBrace) {
				t, err := p.atomType()
				if err != nil {
					return nil, err
				}
				targs = append(targs, t)
			}
			p.advance() // }
		}
		var args []string
		for p.at(lexer.Ident) {
			args = append(args, p.advance().Text)
		}
		return newConstr(pos, name, targs, args), nil
	case p.at(lexer.Ident):
		name := p.advance().Text
		var args []string
		for p.at(lexer.Ident) {
			args = append(args, p.advance().Text)
		}
		if len(args) == 0 {
			return newVar(pos, name), nil
		}
		return newApp(pos, name, args), nil
	}
	return nil, p.errf("expected an expression, found %q", p.cur().String())
}

func (p *Parser) msgExpr() (ast.Expr, error) {
	pos := p.pos2()
	p.advance() // {
	var entries []ast.MsgEntry
	for !p.at(lexer.RBrace) {
		key, err := p.ident("message entry key")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon, "':'"); err != nil {
			return nil, err
		}
		var entry ast.MsgEntry
		entry.Key = key
		switch {
		case p.at(lexer.Ident):
			entry.Var = p.advance().Text
		case p.at(lexer.StringTok):
			entry.IsLit = true
			entry.Lit = ast.StrLit(p.advance().Text)
		case p.at(lexer.HexTok):
			b, err := hexBytes(p.advance().Text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			entry.IsLit = true
			entry.Lit = ast.ByStrLit(b)
		case p.at(lexer.CIdent):
			name := p.cur().Text
			prim, ok := intPrims[name]
			if !ok || p.peekAt(1).Kind != lexer.IntTok {
				return nil, p.errf("message entry value must be an identifier or literal")
			}
			p.advance()
			it := p.advance()
			v, ok2 := new(big.Int).SetString(it.Text, 10)
			if !ok2 || !ast.InRange(prim, v) {
				return nil, p.errf("malformed integer literal in message")
			}
			entry.IsLit = true
			entry.Lit = ast.BigIntLit(prim, v)
		default:
			return nil, p.errf("message entry value must be an identifier or literal")
		}
		entries = append(entries, entry)
		if p.at(lexer.Semi) {
			p.advance()
		}
	}
	p.advance() // }
	return &ast.MsgExpr{Entries: entries, ExprBase: exprAt(pos)}, nil
}

func hexBytes(hex string) ([]byte, error) {
	if len(hex)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex literal")
	}
	out := make([]byte, len(hex)/2)
	for i := 0; i < len(out); i++ {
		var b byte
		if _, err := fmt.Sscanf(strings.ToLower(hex[2*i:2*i+2]), "%02x", &b); err != nil {
			return nil, fmt.Errorf("malformed hex literal: %v", err)
		}
		out[i] = b
	}
	return out, nil
}
