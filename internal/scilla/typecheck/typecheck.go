// Package typecheck implements the typechecker for the Scilla subset.
// It checks a parsed module and produces a Checked artifact holding the
// ADT registry and typing environments used by the interpreter and the
// CoSplit analysis.
package typecheck

import (
	"fmt"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/stdlib"
)

// Error is a type error with an optional source position.
type Error struct {
	Msg string
	Pos ast.Pos
}

func (e *Error) Error() string {
	if e.Pos.Line > 0 {
		return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
	}
	return e.Msg
}

func errf(pos ast.Pos, format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Pos: pos}
}

// Checked is the result of typechecking a module.
type Checked struct {
	Module   *ast.Module
	Registry *stdlib.Registry
	// LibTypes maps library definition names to their types.
	LibTypes map[string]ast.Type
	// FieldTypes maps contract field names to their declared types.
	FieldTypes map[string]ast.Type
	// ParamTypes maps contract (immutable) parameter names to types.
	ParamTypes map[string]ast.Type
}

// Env is a persistent typing context.
type Env struct {
	parent *Env
	vars   map[string]ast.Type
}

// NewEnv creates an environment frame with the given parent.
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: make(map[string]ast.Type)}
}

// Lookup resolves a variable's type.
func (e *Env) Lookup(name string) (ast.Type, bool) {
	for env := e; env != nil; env = env.parent {
		if t, ok := env.vars[name]; ok {
			return t, true
		}
	}
	return nil, false
}

// Bind adds a binding to this frame.
func (e *Env) Bind(name string, t ast.Type) { e.vars[name] = t }

type checker struct {
	reg    *stdlib.Registry
	fields map[string]ast.Type
	out    *Checked
}

// Check typechecks a module.
func Check(m *ast.Module) (*Checked, error) {
	reg := stdlib.NewRegistry()
	c := &checker{
		reg:    reg,
		fields: make(map[string]ast.Type),
	}
	out := &Checked{
		Module:     m,
		Registry:   reg,
		LibTypes:   make(map[string]ast.Type),
		FieldTypes: c.fields,
		ParamTypes: make(map[string]ast.Type),
	}
	c.out = out

	global := NewEnv(nil)
	for _, ns := range stdlib.NativeSigs() {
		global.Bind(ns.Name, ns.Type)
	}
	if m.Lib != nil {
		for _, td := range m.Lib.Types {
			if err := reg.RegisterTypeDef(td); err != nil {
				return nil, errf(ast.Pos{}, "%v", err)
			}
		}
		for _, def := range m.Lib.Defs {
			t, err := c.exprType(global, def.Expr)
			if err != nil {
				return nil, err
			}
			if def.Ty != nil && !def.Ty.Equal(t) {
				return nil, errf(def.Expr.Position(),
					"library definition %s declared %s but has type %s",
					def.Name, def.Ty, t)
			}
			global.Bind(def.Name, t)
			out.LibTypes[def.Name] = t
		}
	}

	ct := &m.Contract
	for _, p := range ct.Params {
		if err := c.checkStorable(p.Type); err != nil {
			return nil, errf(ast.Pos{}, "contract parameter %s: %v", p.Name, err)
		}
		global.Bind(p.Name, p.Type)
		out.ParamTypes[p.Name] = p.Type
	}
	for _, f := range ct.Fields {
		if err := c.checkStorable(f.Type); err != nil {
			return nil, errf(f.Init.Position(), "field %s: %v", f.Name, err)
		}
		t, err := c.exprType(global, f.Init)
		if err != nil {
			return nil, err
		}
		if !t.Equal(f.Type) {
			return nil, errf(f.Init.Position(),
				"field %s declared %s but initialiser has type %s", f.Name, f.Type, t)
		}
		if _, dup := c.fields[f.Name]; dup {
			return nil, errf(f.Init.Position(), "duplicate field %s", f.Name)
		}
		c.fields[f.Name] = f.Type
	}

	seen := map[string]bool{}
	for i := range ct.Transitions {
		tr := &ct.Transitions[i]
		if seen[tr.Name] {
			return nil, errf(tr.Pos, "duplicate transition %s", tr.Name)
		}
		seen[tr.Name] = true
		env := NewEnv(global)
		env.Bind(ast.SenderParam, ast.TyByStr20)
		env.Bind(ast.OriginParam, ast.TyByStr20)
		env.Bind(ast.AmountParam, ast.TyUint128)
		for _, p := range tr.Params {
			if err := c.checkStorable(p.Type); err != nil {
				return nil, errf(tr.Pos, "transition %s parameter %s: %v", tr.Name, p.Name, err)
			}
			env.Bind(p.Name, p.Type)
		}
		if err := c.stmtsType(env, tr.Body); err != nil {
			return nil, fmt.Errorf("transition %s: %w", tr.Name, err)
		}
	}
	return out, nil
}

// checkStorable rejects function and polymorphic types in storage and
// parameter positions.
func (c *checker) checkStorable(t ast.Type) error {
	switch tt := t.(type) {
	case ast.FunType, ast.PolyType, ast.TypeVar:
		return fmt.Errorf("type %s is not storable", t)
	case ast.MapType:
		if err := c.checkStorable(tt.Key); err != nil {
			return err
		}
		if pt, ok := tt.Key.(ast.PrimType); !ok || !pt.IsMapKey() {
			return fmt.Errorf("map key type %s must be an integer, String, ByStr or BNum", tt.Key)
		}
		return c.checkStorable(tt.Val)
	case ast.ADTType:
		if c.reg.ADT(tt.Name) == nil {
			return fmt.Errorf("unknown type %s", tt.Name)
		}
		for _, a := range tt.Args {
			if err := c.checkStorable(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Statements ---

func (c *checker) stmtsType(env *Env, stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := c.stmtType(env, s); err != nil {
			return err
		}
	}
	return nil
}

// mapValueTypeAt descends n key levels into a map type.
func mapValueTypeAt(t ast.Type, n int) (keyTypes []ast.Type, val ast.Type, err error) {
	cur := t
	for i := 0; i < n; i++ {
		mt, ok := cur.(ast.MapType)
		if !ok {
			return nil, nil, fmt.Errorf("too many keys: %s is not a map", cur)
		}
		keyTypes = append(keyTypes, mt.Key)
		cur = mt.Val
	}
	return keyTypes, cur, nil
}

func (c *checker) stmtType(env *Env, s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.LoadStmt:
		if st.Field == "_balance" {
			// The implicit native-token balance of the contract.
			env.Bind(st.Lhs, ast.TyUint128)
			return nil
		}
		ft, ok := c.fields[st.Field]
		if !ok {
			return errf(st.Pos, "unknown field %s", st.Field)
		}
		env.Bind(st.Lhs, ft)
		return nil
	case *ast.StoreStmt:
		ft, ok := c.fields[st.Field]
		if !ok {
			return errf(st.Pos, "unknown field %s", st.Field)
		}
		rt, ok := env.Lookup(st.Rhs)
		if !ok {
			return errf(st.Pos, "unbound identifier %s", st.Rhs)
		}
		if !rt.Equal(ft) {
			return errf(st.Pos, "cannot store %s into field %s of type %s", rt, st.Field, ft)
		}
		return nil
	case *ast.BindStmt:
		t, err := c.exprType(env, st.Expr)
		if err != nil {
			return err
		}
		env.Bind(st.Lhs, t)
		return nil
	case *ast.MapUpdateStmt:
		ft, ok := c.fields[st.Map]
		if !ok {
			return errf(st.Pos, "unknown field %s", st.Map)
		}
		keyTypes, valT, err := mapValueTypeAt(ft, len(st.Keys))
		if err != nil {
			return errf(st.Pos, "field %s: %v", st.Map, err)
		}
		for i, k := range st.Keys {
			kt, ok := env.Lookup(k)
			if !ok {
				return errf(st.Pos, "unbound map key %s", k)
			}
			if !kt.Equal(keyTypes[i]) {
				return errf(st.Pos, "map key %s has type %s, want %s", k, kt, keyTypes[i])
			}
		}
		rt, ok := env.Lookup(st.Rhs)
		if !ok {
			return errf(st.Pos, "unbound identifier %s", st.Rhs)
		}
		if !rt.Equal(valT) {
			return errf(st.Pos, "cannot store %s into %s entry of type %s", rt, st.Map, valT)
		}
		return nil
	case *ast.MapGetStmt:
		ft, ok := c.fields[st.Map]
		if !ok {
			return errf(st.Pos, "unknown field %s", st.Map)
		}
		keyTypes, valT, err := mapValueTypeAt(ft, len(st.Keys))
		if err != nil {
			return errf(st.Pos, "field %s: %v", st.Map, err)
		}
		for i, k := range st.Keys {
			kt, ok := env.Lookup(k)
			if !ok {
				return errf(st.Pos, "unbound map key %s", k)
			}
			if !kt.Equal(keyTypes[i]) {
				return errf(st.Pos, "map key %s has type %s, want %s", k, kt, keyTypes[i])
			}
		}
		if st.Exists {
			env.Bind(st.Lhs, ast.TyBool)
		} else {
			env.Bind(st.Lhs, ast.TyOption(valT))
		}
		return nil
	case *ast.MapDeleteStmt:
		ft, ok := c.fields[st.Map]
		if !ok {
			return errf(st.Pos, "unknown field %s", st.Map)
		}
		keyTypes, _, err := mapValueTypeAt(ft, len(st.Keys))
		if err != nil {
			return errf(st.Pos, "field %s: %v", st.Map, err)
		}
		for i, k := range st.Keys {
			kt, ok := env.Lookup(k)
			if !ok {
				return errf(st.Pos, "unbound map key %s", k)
			}
			if !kt.Equal(keyTypes[i]) {
				return errf(st.Pos, "map key %s has type %s, want %s", k, kt, keyTypes[i])
			}
		}
		return nil
	case *ast.ReadBlockchainStmt:
		switch st.Name {
		case "BLOCKNUMBER":
			env.Bind(st.Lhs, ast.TyBNum)
		case "TIMESTAMP":
			env.Bind(st.Lhs, ast.TyUint64)
		default:
			return errf(st.Pos, "unknown blockchain component %s", st.Name)
		}
		return nil
	case *ast.MatchStmt:
		scrutT, ok := env.Lookup(st.Scrutinee)
		if !ok {
			return errf(st.Pos, "unbound identifier %s", st.Scrutinee)
		}
		for _, arm := range st.Arms {
			armEnv := NewEnv(env)
			if err := c.bindPattern(armEnv, arm.Pat, scrutT, st.Pos); err != nil {
				return err
			}
			if err := c.stmtsType(armEnv, arm.Body); err != nil {
				return err
			}
		}
		return nil
	case *ast.AcceptStmt:
		return nil
	case *ast.SendStmt:
		t, ok := env.Lookup(st.Arg)
		if !ok {
			return errf(st.Pos, "unbound identifier %s", st.Arg)
		}
		if !t.Equal(ast.TyList(ast.TyMessage)) {
			return errf(st.Pos, "send expects List Message, got %s", t)
		}
		return nil
	case *ast.EventStmt:
		t, ok := env.Lookup(st.Arg)
		if !ok {
			return errf(st.Pos, "unbound identifier %s", st.Arg)
		}
		if !t.Equal(ast.TyEvent) && !t.Equal(ast.TyMessage) {
			return errf(st.Pos, "event expects a message payload, got %s", t)
		}
		return nil
	case *ast.ThrowStmt:
		if st.Arg != "" {
			if _, ok := env.Lookup(st.Arg); !ok {
				return errf(st.Pos, "unbound identifier %s", st.Arg)
			}
		}
		return nil
	}
	return errf(s.Position(), "unknown statement %T", s)
}

// bindPattern checks a pattern against a scrutinee type and binds the
// pattern's binders in env.
func (c *checker) bindPattern(env *Env, p ast.Pattern, t ast.Type, pos ast.Pos) error {
	switch pt := p.(type) {
	case ast.WildPat:
		return nil
	case ast.BindPat:
		env.Bind(pt.Name, t)
		return nil
	case ast.ConstrPat:
		adtT, ok := t.(ast.ADTType)
		if !ok {
			return errf(pos, "cannot match %s against constructor %s", t, pt.Name)
		}
		adt := c.reg.ADT(adtT.Name)
		if adt == nil {
			return errf(pos, "unknown type %s", adtT.Name)
		}
		ci := adt.ConstrByName(pt.Name)
		if ci == nil {
			return errf(pos, "type %s has no constructor %s", adtT.Name, pt.Name)
		}
		if len(pt.Sub) != len(ci.ArgTypes) {
			return errf(pos, "constructor %s expects %d sub-patterns, got %d",
				pt.Name, len(ci.ArgTypes), len(pt.Sub))
		}
		argTypes, _, err := c.reg.InstantiateConstr(pt.Name, adtT.Args)
		if err != nil {
			return errf(pos, "%v", err)
		}
		for i, sub := range pt.Sub {
			if err := c.bindPattern(env, sub, argTypes[i], pos); err != nil {
				return err
			}
		}
		return nil
	}
	return errf(pos, "unknown pattern %T", p)
}

// --- Expressions ---

func (c *checker) exprType(env *Env, e ast.Expr) (ast.Type, error) {
	switch ex := e.(type) {
	case *ast.LitExpr:
		return ex.Lit.Type, nil
	case *ast.VarExpr:
		t, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, errf(ex.Pos, "unbound identifier %s", ex.Name)
		}
		return t, nil
	case *ast.MsgExpr:
		isEvent := false
		for _, en := range ex.Entries {
			var vt ast.Type
			if en.IsLit {
				vt = en.Lit.Type
			} else {
				t, ok := env.Lookup(en.Var)
				if !ok {
					return nil, errf(ex.Pos, "unbound identifier %s in message", en.Var)
				}
				vt = t
			}
			switch en.Key {
			case ast.TagKey, ast.EventNameKey, ast.ExceptionKey:
				if !vt.Equal(ast.TyString) {
					return nil, errf(ex.Pos, "%s must be a String, got %s", en.Key, vt)
				}
				if en.Key == ast.EventNameKey {
					isEvent = true
				}
			case ast.RecipientKey:
				if !vt.Equal(ast.TyByStr20) {
					return nil, errf(ex.Pos, "_recipient must be a ByStr20, got %s", vt)
				}
			case ast.AmountKey:
				if !vt.Equal(ast.TyUint128) {
					return nil, errf(ex.Pos, "_amount must be a Uint128, got %s", vt)
				}
			default:
				switch vt.(type) {
				case ast.FunType, ast.PolyType:
					return nil, errf(ex.Pos, "message entry %s has non-serialisable type %s", en.Key, vt)
				}
			}
		}
		if isEvent {
			return ast.TyEvent, nil
		}
		return ast.TyMessage, nil
	case *ast.ConstrExpr:
		if ex.Name == "Emp" {
			if len(ex.TypeArgs) != 2 {
				return nil, errf(ex.Pos, "Emp expects key and value types")
			}
			mt := ast.MapType{Key: ex.TypeArgs[0], Val: ex.TypeArgs[1]}
			if err := c.checkStorable(mt); err != nil {
				return nil, errf(ex.Pos, "%v", err)
			}
			return mt, nil
		}
		argTypes, resT, err := c.reg.InstantiateConstr(ex.Name, ex.TypeArgs)
		if err != nil {
			return nil, errf(ex.Pos, "%v", err)
		}
		if len(ex.Args) != len(argTypes) {
			return nil, errf(ex.Pos, "constructor %s expects %d arguments, got %d",
				ex.Name, len(argTypes), len(ex.Args))
		}
		for i, a := range ex.Args {
			at, ok := env.Lookup(a)
			if !ok {
				return nil, errf(ex.Pos, "unbound identifier %s", a)
			}
			if !at.Equal(argTypes[i]) {
				return nil, errf(ex.Pos, "constructor %s argument %d has type %s, want %s",
					ex.Name, i+1, at, argTypes[i])
			}
		}
		return resT, nil
	case *ast.BuiltinExpr:
		argTypes := make([]ast.Type, len(ex.Args))
		for i, a := range ex.Args {
			t, ok := env.Lookup(a)
			if !ok {
				return nil, errf(ex.Pos, "unbound identifier %s", a)
			}
			argTypes[i] = t
		}
		t, err := stdlib.TypeOf(ex.Name, argTypes)
		if err != nil {
			return nil, errf(ex.Pos, "%v", err)
		}
		return t, nil
	case *ast.LetExpr:
		bt, err := c.exprType(env, ex.Bound)
		if err != nil {
			return nil, err
		}
		if ex.Ty != nil && !ex.Ty.Equal(bt) {
			return nil, errf(ex.Pos, "let %s declared %s but bound to %s", ex.Name, ex.Ty, bt)
		}
		inner := NewEnv(env)
		inner.Bind(ex.Name, bt)
		return c.exprType(inner, ex.Body)
	case *ast.FunExpr:
		inner := NewEnv(env)
		inner.Bind(ex.Param, ex.ParamType)
		rt, err := c.exprType(inner, ex.Body)
		if err != nil {
			return nil, err
		}
		return ast.FunType{Arg: ex.ParamType, Ret: rt}, nil
	case *ast.AppExpr:
		ft, ok := env.Lookup(ex.Func)
		if !ok {
			return nil, errf(ex.Pos, "unbound identifier %s", ex.Func)
		}
		cur := ft
		for i, a := range ex.Args {
			fn, ok := cur.(ast.FunType)
			if !ok {
				return nil, errf(ex.Pos, "%s is over-applied (argument %d)", ex.Func, i+1)
			}
			at, ok := env.Lookup(a)
			if !ok {
				return nil, errf(ex.Pos, "unbound identifier %s", a)
			}
			if !at.Equal(fn.Arg) {
				return nil, errf(ex.Pos, "argument %d of %s has type %s, want %s",
					i+1, ex.Func, at, fn.Arg)
			}
			cur = fn.Ret
		}
		return cur, nil
	case *ast.MatchExpr:
		scrutT, ok := env.Lookup(ex.Scrutinee)
		if !ok {
			return nil, errf(ex.Pos, "unbound identifier %s", ex.Scrutinee)
		}
		var resT ast.Type
		for _, arm := range ex.Arms {
			armEnv := NewEnv(env)
			if err := c.bindPattern(armEnv, arm.Pat, scrutT, ex.Pos); err != nil {
				return nil, err
			}
			t, err := c.exprType(armEnv, arm.Body)
			if err != nil {
				return nil, err
			}
			if resT == nil {
				resT = t
			} else if !resT.Equal(t) {
				return nil, errf(ex.Pos, "match arms have differing types %s and %s", resT, t)
			}
		}
		return resT, nil
	case *ast.TFunExpr:
		inner := NewEnv(env)
		bt, err := c.exprType(inner, ex.Body)
		if err != nil {
			return nil, err
		}
		return ast.PolyType{Var: ex.TVar, Body: bt}, nil
	case *ast.TAppExpr:
		ft, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, errf(ex.Pos, "unbound identifier %s", ex.Name)
		}
		cur := ft
		for i, ta := range ex.TypeArgs {
			pt, ok := cur.(ast.PolyType)
			if !ok {
				return nil, errf(ex.Pos, "%s is not polymorphic at type argument %d", ex.Name, i+1)
			}
			cur = ast.SubstType(pt.Body, pt.Var, ta)
		}
		return cur, nil
	}
	return nil, errf(e.Position(), "unknown expression %T", e)
}
