// Package eval implements the definitional interpreter for the Scilla
// subset. Contract transitions are executed against a StateAccess
// implementation supplied by the blockchain substrate, producing
// outgoing messages, events, and an accept flag.
package eval

import (
	"fmt"
	"math/big"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/stdlib"
	"cosplit/internal/scilla/typecheck"
	"cosplit/internal/scilla/value"
)

// StateAccess abstracts the mutable contract state. The blockchain
// substrate implements it with delta tracking; tests implement it with
// plain in-memory maps.
type StateAccess interface {
	// LoadField reads a whole field value (deep copy not required; the
	// interpreter treats the result as immutable).
	LoadField(name string) (value.Value, error)
	// StoreField overwrites a whole field value.
	StoreField(name string, v value.Value) error
	// MapGet reads a (possibly nested) map entry; ok is false if absent.
	// Map entries are addressed by their key values together with the
	// keys' canonical forms: cks is parallel to keys, cks[i] ==
	// value.CanonicalKey(keys[i]), computed once per access by the
	// caller (CanonicalKeys). Implementations must not retain either
	// slice.
	MapGet(field string, cks []string, keys []value.Value) (v value.Value, ok bool, err error)
	// MapSet writes a (possibly nested) map entry, creating intermediate
	// maps as needed.
	MapSet(field string, cks []string, keys []value.Value, v value.Value) error
	// MapDelete removes a (possibly nested) map entry if present.
	MapDelete(field string, cks []string, keys []value.Value) error
}

// CanonicalKeys appends the canonical form of every key to buf and
// returns it: the cks argument of the StateAccess map methods.
func CanonicalKeys(buf []string, keys []value.Value) []string {
	for _, k := range keys {
		buf = append(buf, value.CanonicalKey(k))
	}
	return buf
}

// GetAt and SetAt address a map entry by key values alone, for callers
// outside the execution engines (readers of committed state, tests)
// that have no canonical keys at hand.
func GetAt(st StateAccess, field string, keys []value.Value) (value.Value, bool, error) {
	return st.MapGet(field, CanonicalKeys(nil, keys), keys)
}

func SetAt(st StateAccess, field string, keys []value.Value, v value.Value) error {
	return st.MapSet(field, CanonicalKeys(nil, keys), keys, v)
}

// Context carries the per-transaction blockchain environment.
type Context struct {
	Sender      value.ByStr // ByStr20 of the transaction signer
	Origin      value.ByStr // ByStr20 of the original external account
	Amount      value.Int   // Uint128 native tokens sent with the call
	BlockNumber *big.Int
	Timestamp   uint64
	State       StateAccess
	// GasLimit bounds execution; 0 means unlimited.
	GasLimit uint64
	// GasUsed accumulates gas consumed during execution; Run resets it.
	GasUsed uint64
	// ContractBalance backs the implicit _balance field (native tokens
	// held by the contract); nil reads as zero.
	ContractBalance *big.Int

	// argsEnv is the transition-call environment, reused across Run
	// calls on the same Context (reset each call); keyBuf and ckBuf are
	// the scratch key vector of a map statement and its canonical
	// forms. They exist purely to keep the per-transaction hot path
	// from allocating slices; a zero Context works and allocates them
	// lazily.
	argsEnv *value.Env
	keyBuf  []value.Value
	ckBuf   []string
}

// Result is the outcome of a successful transition execution.
type Result struct {
	Messages []value.Msg
	Events   []value.Msg
	Accepted bool
	GasUsed  uint64
}

// ThrowError is raised by an executed `throw` statement or a failed
// builtin; it aborts the transition (the transaction is rejected and
// state changes are discarded by the caller).
type ThrowError struct {
	Msg string
}

func (e *ThrowError) Error() string { return "transition aborted: " + e.Msg }

// OutOfGasError is raised when execution exceeds the gas limit.
type OutOfGasError struct{ Limit uint64 }

func (e *OutOfGasError) Error() string {
	return fmt.Sprintf("out of gas (limit %d)", e.Limit)
}

// Interpreter evaluates transitions of a single checked contract. Once
// constructed it is read-only, so a single Interpreter is safe for
// concurrent use with distinct Contexts and StateAccess values.
type Interpreter struct {
	checked *typecheck.Checked
	libEnv  *value.Env
}

// gas costs per operation kind.
const (
	gasStmt    = 1
	gasExpr    = 1
	gasMapOp   = 4
	gasLoad    = 4
	gasStore   = 8
	gasSend    = 10
	gasEvent   = 5
	gasBuiltin = 2
)

// Exported gas schedule, for execution engines (internal/scilla/compile)
// that must charge bit-for-bit the same gas as the interpreter.
const (
	GasStmt    uint64 = gasStmt
	GasExpr    uint64 = gasExpr
	GasMapOp   uint64 = gasMapOp
	GasLoad    uint64 = gasLoad
	GasStore   uint64 = gasStore
	GasSend    uint64 = gasSend
	GasEvent   uint64 = gasEvent
	GasBuiltin uint64 = gasBuiltin
)

// New builds an interpreter for a checked module with the given values
// for the contract's immutable parameters. Library definitions are
// evaluated eagerly, once.
func New(checked *typecheck.Checked, contractParams map[string]value.Value) (*Interpreter, error) {
	in := &Interpreter{checked: checked}
	env := value.NewEnv(nil)
	for name, nv := range stdlib.NativeValues(in.applyValue) {
		env.Bind(name, nv)
	}
	// Contract immutable parameters are visible everywhere.
	for _, p := range checked.Module.Contract.Params {
		v, ok := contractParams[p.Name]
		if !ok {
			return nil, fmt.Errorf("missing contract parameter %s", p.Name)
		}
		env.Bind(p.Name, v)
	}
	// The contract's own address is available as _this_address.
	if v, ok := contractParams["_this_address"]; ok {
		env.Bind("_this_address", v)
	}
	if lib := checked.Module.Lib; lib != nil {
		for _, def := range lib.Defs {
			v, err := in.evalExpr(env, def.Expr)
			if err != nil {
				return nil, fmt.Errorf("library %s: %w", def.Name, err)
			}
			env.Bind(def.Name, v)
		}
	}
	in.libEnv = env
	return in, nil
}

// Checked returns the typechecked module the interpreter runs.
func (in *Interpreter) Checked() *typecheck.Checked { return in.checked }

// LibEnv exposes the immutable library environment (natives, contract
// parameters, library definitions) for execution engines layered on
// top of the interpreter. Callers must treat it as read-only.
func (in *Interpreter) LibEnv() *value.Env { return in.libEnv }

// LibValue resolves a name in the library environment.
func (in *Interpreter) LibValue(name string) (value.Value, bool) {
	return in.libEnv.Lookup(name)
}

// Apply applies a function value to an argument under the Context's
// gas accounting, exactly as the interpreter's application rule does.
func (in *Interpreter) Apply(ctx *Context, fn, arg value.Value) (value.Value, error) {
	return in.applyCtx(ctx, fn, arg)
}

// TApply instantiates a type-polymorphic value with the given type
// arguments, charging gas exactly as the interpreter's TApp rule does.
// name is used only for the error message on non-polymorphic values.
func (in *Interpreter) TApply(ctx *Context, name string, fv value.Value, targs []ast.Type) (value.Value, error) {
	cur := fv
	for _, ta := range targs {
		switch f := cur.(type) {
		case *value.TClosure:
			inner := value.NewEnv(f.Env)
			v, err := in.evalExprCtx(ctx, inner, f.Body)
			if err != nil {
				return nil, err
			}
			cur = v
		case *value.Native:
			cur = f.WithTypeArgs([]ast.Type{ta})
		default:
			return nil, fmt.Errorf("%s is not type-polymorphic", name)
		}
	}
	return cur, nil
}

// InitField evaluates a field initialiser in the library environment.
func (in *Interpreter) InitField(f *ast.Field) (value.Value, error) {
	return in.evalExpr(in.libEnv, f.Init)
}

// Run executes the named transition with the given arguments.
func (in *Interpreter) Run(ctx *Context, transition string, args map[string]value.Value) (*Result, error) {
	tr := in.checked.Module.Contract.TransitionByName(transition)
	if tr == nil {
		return nil, fmt.Errorf("unknown transition %s", transition)
	}
	ctx.GasUsed = 0
	// Reuse the call environment across transactions on the same
	// Context: nothing that survives Run (messages, events, state
	// values) can reference it, since storable and sendable types
	// exclude closures.
	env := ctx.argsEnv
	if env == nil {
		env = value.NewEnv(in.libEnv)
		ctx.argsEnv = env
	} else {
		env.Reset(in.libEnv)
	}
	env.Bind(ast.SenderParam, ctx.Sender)
	env.Bind(ast.OriginParam, ctx.Origin)
	env.Bind(ast.AmountParam, ctx.Amount)
	for _, p := range tr.Params {
		v, ok := args[p.Name]
		if !ok {
			return nil, fmt.Errorf("missing argument %s for transition %s", p.Name, transition)
		}
		if !v.Type().Equal(p.Type) {
			// Allow ByStr20/ByStr32 flexibility is NOT allowed: strict.
			return nil, fmt.Errorf("argument %s has type %s, want %s", p.Name, v.Type(), p.Type)
		}
		env.Bind(p.Name, v)
	}
	res := &Result{}
	if err := in.execStmts(ctx, env, tr.Body, res); err != nil {
		return nil, err
	}
	res.GasUsed = ctx.GasUsed
	return res, nil
}

func (in *Interpreter) burn(ctx *Context, g uint64) error {
	if ctx == nil {
		return nil
	}
	ctx.GasUsed += g
	if ctx.GasLimit > 0 && ctx.GasUsed > ctx.GasLimit {
		return &OutOfGasError{Limit: ctx.GasLimit}
	}
	return nil
}

// --- Statements ---

func (in *Interpreter) execStmts(ctx *Context, env *value.Env, stmts []ast.Stmt, res *Result) error {
	for _, s := range stmts {
		if err := in.execStmt(ctx, env, s, res); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interpreter) execStmt(ctx *Context, env *value.Env, s ast.Stmt, res *Result) error {
	if err := in.burn(ctx, gasStmt); err != nil {
		return err
	}
	switch st := s.(type) {
	case *ast.LoadStmt:
		if err := in.burn(ctx, gasLoad); err != nil {
			return err
		}
		if st.Field == "_balance" {
			bal := big.NewInt(0)
			if ctx.ContractBalance != nil {
				bal = new(big.Int).Set(ctx.ContractBalance)
			}
			env.Bind(st.Lhs, value.Int{Ty: ast.TyUint128, V: bal})
			return nil
		}
		v, err := ctx.State.LoadField(st.Field)
		if err != nil {
			return err
		}
		env.Bind(st.Lhs, v)
		return nil
	case *ast.StoreStmt:
		if err := in.burn(ctx, gasStore); err != nil {
			return err
		}
		v, ok := env.Lookup(st.Rhs)
		if !ok {
			return fmt.Errorf("unbound identifier %s", st.Rhs)
		}
		return ctx.State.StoreField(st.Field, v)
	case *ast.BindStmt:
		v, err := in.evalExprCtx(ctx, env, st.Expr)
		if err != nil {
			return err
		}
		env.Bind(st.Lhs, v)
		return nil
	case *ast.MapUpdateStmt:
		if err := in.burn(ctx, gasMapOp); err != nil {
			return err
		}
		cks, keys, err := in.lookupKeys(ctx, env, st.Keys)
		if err != nil {
			return err
		}
		v, ok := env.Lookup(st.Rhs)
		if !ok {
			return fmt.Errorf("unbound identifier %s", st.Rhs)
		}
		return ctx.State.MapSet(st.Map, cks, keys, v)
	case *ast.MapGetStmt:
		if err := in.burn(ctx, gasMapOp); err != nil {
			return err
		}
		cks, keys, err := in.lookupKeys(ctx, env, st.Keys)
		if err != nil {
			return err
		}
		v, found, err := ctx.State.MapGet(st.Map, cks, keys)
		if err != nil {
			return err
		}
		if st.Exists {
			env.Bind(st.Lhs, value.Bool(found))
			return nil
		}
		valT, err := in.fieldValueTypeAt(st.Map, len(st.Keys))
		if err != nil {
			return err
		}
		if found {
			env.Bind(st.Lhs, value.Some(valT, v))
		} else {
			env.Bind(st.Lhs, value.None(valT))
		}
		return nil
	case *ast.MapDeleteStmt:
		if err := in.burn(ctx, gasMapOp); err != nil {
			return err
		}
		cks, keys, err := in.lookupKeys(ctx, env, st.Keys)
		if err != nil {
			return err
		}
		return ctx.State.MapDelete(st.Map, cks, keys)
	case *ast.ReadBlockchainStmt:
		switch st.Name {
		case "BLOCKNUMBER":
			env.Bind(st.Lhs, value.BNum{V: new(big.Int).Set(ctx.BlockNumber)})
		case "TIMESTAMP":
			env.Bind(st.Lhs, value.Int{Ty: ast.TyUint64, V: new(big.Int).SetUint64(ctx.Timestamp)})
		default:
			return fmt.Errorf("unknown blockchain component %s", st.Name)
		}
		return nil
	case *ast.MatchStmt:
		scrut, ok := env.Lookup(st.Scrutinee)
		if !ok {
			return fmt.Errorf("unbound identifier %s", st.Scrutinee)
		}
		for _, arm := range st.Arms {
			binds, matched := matchPattern(arm.Pat, scrut)
			if !matched {
				continue
			}
			armEnv := value.NewEnv(env)
			for k, v := range binds {
				armEnv.Bind(k, v)
			}
			return in.execStmts(ctx, armEnv, arm.Body, res)
		}
		return &ThrowError{Msg: fmt.Sprintf("no pattern matched value %s", scrut.String())}
	case *ast.AcceptStmt:
		res.Accepted = true
		return nil
	case *ast.SendStmt:
		if err := in.burn(ctx, gasSend); err != nil {
			return err
		}
		v, ok := env.Lookup(st.Arg)
		if !ok {
			return fmt.Errorf("unbound identifier %s", st.Arg)
		}
		msgs, ok := value.ListValues(v)
		if !ok {
			return fmt.Errorf("send expects a list of messages")
		}
		for _, m := range msgs {
			msg, ok := m.(value.Msg)
			if !ok {
				return fmt.Errorf("send expects messages, got %s", m.String())
			}
			res.Messages = append(res.Messages, msg)
		}
		return nil
	case *ast.EventStmt:
		if err := in.burn(ctx, gasEvent); err != nil {
			return err
		}
		v, ok := env.Lookup(st.Arg)
		if !ok {
			return fmt.Errorf("unbound identifier %s", st.Arg)
		}
		msg, ok := v.(value.Msg)
		if !ok {
			return fmt.Errorf("event expects a message payload")
		}
		res.Events = append(res.Events, msg)
		return nil
	case *ast.ThrowStmt:
		msg := "throw"
		if st.Arg != "" {
			if v, ok := env.Lookup(st.Arg); ok {
				msg = v.String()
			}
		}
		return &ThrowError{Msg: msg}
	}
	return fmt.Errorf("unknown statement %T", s)
}

// lookupKeys resolves a map statement's key identifiers into the
// Context's scratch buffer and canonicalises them, once, into the
// buffer beside it. State backends never retain either slice
// (eval.MemState copies into its map structure, chain.Overlay copies
// on first write of a keypath), so reusing the buffers per Context is
// safe. Expression paths (constructor and builtin application) keep
// lookupAll: their slices are retained by the produced values.
func (in *Interpreter) lookupKeys(ctx *Context, env *value.Env, names []string) ([]string, []value.Value, error) {
	keys := ctx.keyBuf[:0]
	for _, n := range names {
		v, ok := env.Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("unbound identifier %s", n)
		}
		keys = append(keys, v)
	}
	ctx.keyBuf = keys
	ctx.ckBuf = CanonicalKeys(ctx.ckBuf[:0], keys)
	return ctx.ckBuf, keys, nil
}

func (in *Interpreter) lookupAll(env *value.Env, names []string) ([]value.Value, error) {
	out := make([]value.Value, len(names))
	for i, n := range names {
		v, ok := env.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unbound identifier %s", n)
		}
		out[i] = v
	}
	return out, nil
}

func (in *Interpreter) fieldValueTypeAt(field string, depth int) (ast.Type, error) {
	t, ok := in.checked.FieldTypes[field]
	if !ok {
		return nil, fmt.Errorf("unknown field %s", field)
	}
	for i := 0; i < depth; i++ {
		mt, ok := t.(ast.MapType)
		if !ok {
			return nil, fmt.Errorf("field %s is not a map at depth %d", field, i)
		}
		t = mt.Val
	}
	return t, nil
}

// matchPattern attempts to match a value against a pattern, returning
// the new bindings.
func matchPattern(p ast.Pattern, v value.Value) (map[string]value.Value, bool) {
	switch pt := p.(type) {
	case ast.WildPat:
		return nil, true
	case ast.BindPat:
		return map[string]value.Value{pt.Name: v}, true
	case ast.ConstrPat:
		adt, ok := v.(value.ADT)
		if !ok || adt.Constr != pt.Name {
			return nil, false
		}
		if len(pt.Sub) != len(adt.Args) {
			return nil, false
		}
		binds := make(map[string]value.Value)
		for i, sub := range pt.Sub {
			sb, ok := matchPattern(sub, adt.Args[i])
			if !ok {
				return nil, false
			}
			for k, val := range sb {
				binds[k] = val
			}
		}
		return binds, true
	}
	return nil, false
}

// --- Expressions ---

// evalExpr evaluates a pure expression outside a transaction context
// (library definitions, field initialisers).
func (in *Interpreter) evalExpr(env *value.Env, e ast.Expr) (value.Value, error) {
	return in.evalExprCtx(nil, env, e)
}

func (in *Interpreter) evalExprCtx(ctx *Context, env *value.Env, e ast.Expr) (value.Value, error) {
	if err := in.burn(ctx, gasExpr); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *ast.LitExpr:
		return value.FromLiteral(ex.Lit), nil
	case *ast.VarExpr:
		v, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, fmt.Errorf("unbound identifier %s", ex.Name)
		}
		return v, nil
	case *ast.MsgExpr:
		entries := make(map[string]value.Value, len(ex.Entries))
		for _, en := range ex.Entries {
			if en.IsLit {
				entries[en.Key] = value.FromLiteral(en.Lit)
				continue
			}
			v, ok := env.Lookup(en.Var)
			if !ok {
				return nil, fmt.Errorf("unbound identifier %s in message", en.Var)
			}
			entries[en.Key] = v
		}
		return value.Msg{Entries: entries}, nil
	case *ast.ConstrExpr:
		if ex.Name == "Emp" {
			return value.NewMap(ex.TypeArgs[0], ex.TypeArgs[1]), nil
		}
		adt := in.checked.Registry.OwnerOfConstr(ex.Name)
		if adt == nil {
			return nil, fmt.Errorf("unknown constructor %s", ex.Name)
		}
		args, err := in.lookupAll(env, ex.Args)
		if err != nil {
			return nil, err
		}
		return value.ADT{
			TypeName: adt.Name,
			Constr:   ex.Name,
			TypeArgs: ex.TypeArgs,
			Args:     args,
		}, nil
	case *ast.BuiltinExpr:
		if err := in.burn(ctx, gasBuiltin); err != nil {
			return nil, err
		}
		args, err := in.lookupAll(env, ex.Args)
		if err != nil {
			return nil, err
		}
		v, err := stdlib.Eval(ex.Name, args)
		if err != nil {
			var rt *stdlib.RuntimeError
			if ok := asRuntime(err, &rt); ok {
				return nil, &ThrowError{Msg: rt.Msg}
			}
			return nil, err
		}
		return v, nil
	case *ast.LetExpr:
		bv, err := in.evalExprCtx(ctx, env, ex.Bound)
		if err != nil {
			return nil, err
		}
		inner := value.NewEnv(env)
		inner.Bind(ex.Name, bv)
		return in.evalExprCtx(ctx, inner, ex.Body)
	case *ast.FunExpr:
		return &value.Closure{Param: ex.Param, ParamType: ex.ParamType, Body: ex.Body, Env: env}, nil
	case *ast.AppExpr:
		fv, ok := env.Lookup(ex.Func)
		if !ok {
			return nil, fmt.Errorf("unbound identifier %s", ex.Func)
		}
		cur := fv
		for _, a := range ex.Args {
			av, ok := env.Lookup(a)
			if !ok {
				return nil, fmt.Errorf("unbound identifier %s", a)
			}
			var err error
			cur, err = in.applyCtx(ctx, cur, av)
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	case *ast.MatchExpr:
		scrut, ok := env.Lookup(ex.Scrutinee)
		if !ok {
			return nil, fmt.Errorf("unbound identifier %s", ex.Scrutinee)
		}
		for _, arm := range ex.Arms {
			binds, matched := matchPattern(arm.Pat, scrut)
			if !matched {
				continue
			}
			armEnv := value.NewEnv(env)
			for k, v := range binds {
				armEnv.Bind(k, v)
			}
			return in.evalExprCtx(ctx, armEnv, arm.Body)
		}
		return nil, &ThrowError{Msg: fmt.Sprintf("no pattern matched value %s", scrut.String())}
	case *ast.TFunExpr:
		return &value.TClosure{TVar: ex.TVar, Body: ex.Body, Env: env}, nil
	case *ast.TAppExpr:
		fv, ok := env.Lookup(ex.Name)
		if !ok {
			return nil, fmt.Errorf("unbound identifier %s", ex.Name)
		}
		cur := fv
		for _, ta := range ex.TypeArgs {
			switch f := cur.(type) {
			case *value.TClosure:
				// Type arguments are erased at runtime for closures.
				inner := value.NewEnv(f.Env)
				v, err := in.evalExprCtx(ctx, inner, f.Body)
				if err != nil {
					return nil, err
				}
				cur = v
			case *value.Native:
				cur = f.WithTypeArgs([]ast.Type{ta})
			default:
				return nil, fmt.Errorf("%s is not type-polymorphic", ex.Name)
			}
		}
		return cur, nil
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

// applyValue applies a function value to an argument (used by natives).
func (in *Interpreter) applyValue(fn value.Value, arg value.Value) (value.Value, error) {
	return in.applyCtx(nil, fn, arg)
}

func (in *Interpreter) applyCtx(ctx *Context, fn value.Value, arg value.Value) (value.Value, error) {
	if err := in.burn(ctx, gasExpr); err != nil {
		return nil, err
	}
	switch f := fn.(type) {
	case *value.Closure:
		inner := value.NewEnv(f.Env)
		inner.Bind(f.Param, arg)
		return in.evalExprCtx(ctx, inner, f.Body)
	case *value.Native:
		nf := f.WithArg(arg)
		if nf.Saturated() {
			v, err := nf.Fn(nf.TypeArgs, nf.Args)
			if err != nil {
				var rt *stdlib.RuntimeError
				if ok := asRuntime(err, &rt); ok {
					return nil, &ThrowError{Msg: rt.Msg}
				}
				return nil, err
			}
			return v, nil
		}
		return nf, nil
	}
	return nil, fmt.Errorf("cannot apply non-function value %s", fn.String())
}

func asRuntime(err error, target **stdlib.RuntimeError) bool {
	if rt, ok := err.(*stdlib.RuntimeError); ok {
		*target = rt
		return true
	}
	return false
}
