package stdlib

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

// CommutativeOps is the set of builtin operations whose linear
// application to a field value yields a commutative (delta-mergeable)
// write. Addition and subtraction of state-independent quantities
// commute with each other; see Sec. 2.3 and Sec. 3.4 of the paper.
var CommutativeOps = map[string]bool{
	"add": true,
	"sub": true,
}

var builtinArity = map[string]int{
	"add": 2, "sub": 2, "mul": 2, "div": 2, "rem": 2, "pow": 2,
	"lt": 2, "le": 2, "gt": 2, "ge": 2, "eq": 2,
	"andb": 2, "orb": 2, "negb": 1,
	"concat": 2, "strlen": 1, "substr": 3, "to_string": 1,
	"sha256hash": 1, "keccak256hash": 1, "ripemd160hash": 1,
	"to_uint32": 1, "to_uint64": 1, "to_uint128": 1, "to_uint256": 1,
	"to_int32": 1, "to_int64": 1, "to_int128": 1, "to_int256": 1,
	"blt": 2, "badd": 2, "bsub": 2,
	"contains": 2, "put": 3, "get": 2, "remove": 2, "to_list": 1, "size": 1,
	"to_bystr": 1, "schnorr_verify": 3,
}

// Arity returns the number of arguments the builtin expects, and
// whether the builtin exists.
func Arity(name string) (int, bool) {
	n, ok := builtinArity[name]
	return n, ok
}

func isIntType(t ast.Type) (ast.PrimType, bool) {
	p, ok := t.(ast.PrimType)
	if !ok || !p.IsInt() {
		return ast.PrimType{}, false
	}
	return p, true
}

// TypeOf computes the result type of builtin name applied to argTypes.
func TypeOf(name string, argTypes []ast.Type) (ast.Type, error) {
	want, ok := builtinArity[name]
	if !ok {
		return nil, fmt.Errorf("unknown builtin %s", name)
	}
	if len(argTypes) != want {
		return nil, fmt.Errorf("builtin %s expects %d arguments, got %d", name, want, len(argTypes))
	}
	fail := func() (ast.Type, error) {
		return nil, fmt.Errorf("builtin %s not applicable to %v", name, argTypes)
	}
	switch name {
	case "add", "sub", "mul", "div", "rem":
		a, ok1 := isIntType(argTypes[0])
		b, ok2 := isIntType(argTypes[1])
		if !ok1 || !ok2 || a.Kind != b.Kind {
			return fail()
		}
		return a, nil
	case "pow":
		a, ok1 := isIntType(argTypes[0])
		b, ok2 := isIntType(argTypes[1])
		if !ok1 || !ok2 || b.Kind != ast.Uint32 {
			return fail()
		}
		return a, nil
	case "lt", "le", "gt", "ge":
		a, ok1 := isIntType(argTypes[0])
		b, ok2 := isIntType(argTypes[1])
		if !ok1 || !ok2 || a.Kind != b.Kind {
			return fail()
		}
		return ast.TyBool, nil
	case "eq":
		a, ok1 := argTypes[0].(ast.PrimType)
		b, ok2 := argTypes[1].(ast.PrimType)
		if !ok1 || !ok2 || a.Kind != b.Kind {
			return fail()
		}
		return ast.TyBool, nil
	case "andb", "orb":
		if !argTypes[0].Equal(ast.TyBool) || !argTypes[1].Equal(ast.TyBool) {
			return fail()
		}
		return ast.TyBool, nil
	case "negb":
		if !argTypes[0].Equal(ast.TyBool) {
			return fail()
		}
		return ast.TyBool, nil
	case "concat":
		a, ok1 := argTypes[0].(ast.PrimType)
		b, ok2 := argTypes[1].(ast.PrimType)
		if !ok1 || !ok2 {
			return fail()
		}
		if a.Kind == ast.StringKind && b.Kind == ast.StringKind {
			return ast.TyString, nil
		}
		isBystr := func(k ast.PrimKind) bool {
			return k == ast.ByStr || k == ast.ByStr20 || k == ast.ByStr32
		}
		if isBystr(a.Kind) && isBystr(b.Kind) {
			return ast.TyByStr, nil
		}
		return fail()
	case "strlen":
		if !argTypes[0].Equal(ast.TyString) {
			return fail()
		}
		return ast.TyUint32, nil
	case "substr":
		if !argTypes[0].Equal(ast.TyString) || !argTypes[1].Equal(ast.TyUint32) || !argTypes[2].Equal(ast.TyUint32) {
			return fail()
		}
		return ast.TyString, nil
	case "to_string":
		if _, ok := argTypes[0].(ast.PrimType); !ok {
			return fail()
		}
		return ast.TyString, nil
	case "sha256hash", "keccak256hash":
		return ast.TyByStr32, nil
	case "ripemd160hash":
		return ast.TyByStr20, nil
	case "to_uint32", "to_uint64", "to_uint128", "to_uint256",
		"to_int32", "to_int64", "to_int128", "to_int256":
		p, ok := argTypes[0].(ast.PrimType)
		if !ok || (!p.IsInt() && p.Kind != ast.StringKind) {
			return fail()
		}
		return ast.TyOption(convTarget(name)), nil
	case "blt":
		if !argTypes[0].Equal(ast.TyBNum) || !argTypes[1].Equal(ast.TyBNum) {
			return fail()
		}
		return ast.TyBool, nil
	case "badd":
		if !argTypes[0].Equal(ast.TyBNum) {
			return fail()
		}
		if _, ok := isIntType(argTypes[1]); !ok {
			return fail()
		}
		return ast.TyBNum, nil
	case "bsub":
		if !argTypes[0].Equal(ast.TyBNum) || !argTypes[1].Equal(ast.TyBNum) {
			return fail()
		}
		return ast.TyInt256, nil
	case "contains":
		m, ok := argTypes[0].(ast.MapType)
		if !ok || !m.Key.Equal(argTypes[1]) {
			return fail()
		}
		return ast.TyBool, nil
	case "put":
		m, ok := argTypes[0].(ast.MapType)
		if !ok || !m.Key.Equal(argTypes[1]) || !m.Val.Equal(argTypes[2]) {
			return fail()
		}
		return m, nil
	case "get":
		m, ok := argTypes[0].(ast.MapType)
		if !ok || !m.Key.Equal(argTypes[1]) {
			return fail()
		}
		return ast.TyOption(m.Val), nil
	case "remove":
		m, ok := argTypes[0].(ast.MapType)
		if !ok || !m.Key.Equal(argTypes[1]) {
			return fail()
		}
		return m, nil
	case "to_list":
		m, ok := argTypes[0].(ast.MapType)
		if !ok {
			return fail()
		}
		return ast.TyList(ast.TyPair(m.Key, m.Val)), nil
	case "size":
		if _, ok := argTypes[0].(ast.MapType); !ok {
			return fail()
		}
		return ast.TyUint32, nil
	case "to_bystr":
		p, ok := argTypes[0].(ast.PrimType)
		if !ok || (p.Kind != ast.ByStr20 && p.Kind != ast.ByStr32 && p.Kind != ast.ByStr) {
			return fail()
		}
		return ast.TyByStr, nil
	case "schnorr_verify":
		return ast.TyBool, nil
	}
	return fail()
}

func convTarget(name string) ast.PrimType {
	switch name {
	case "to_uint32":
		return ast.TyUint32
	case "to_uint64":
		return ast.TyUint64
	case "to_uint128":
		return ast.TyUint128
	case "to_uint256":
		return ast.TyUint256
	case "to_int32":
		return ast.TyInt32
	case "to_int64":
		return ast.TyInt64
	case "to_int128":
		return ast.TyInt128
	case "to_int256":
		return ast.TyInt256
	}
	panic("not a conversion builtin: " + name)
}

// RuntimeError is a dynamic failure raised by a builtin (overflow,
// division by zero, malformed argument). It aborts the enclosing
// transition like a `throw`.
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return e.Msg }

func rtErrf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates builtin name on fully-evaluated arguments.
func Eval(name string, args []value.Value) (value.Value, error) {
	want, ok := builtinArity[name]
	if !ok {
		return nil, rtErrf("unknown builtin %s", name)
	}
	if len(args) != want {
		return nil, rtErrf("builtin %s expects %d arguments, got %d", name, want, len(args))
	}
	switch name {
	case "add", "sub", "mul", "div", "rem", "pow":
		return evalArith(name, args)
	case "lt", "le", "gt", "ge":
		a, ok1 := args[0].(value.Int)
		b, ok2 := args[1].(value.Int)
		if !ok1 || !ok2 {
			return nil, rtErrf("builtin %s expects integers", name)
		}
		c := a.V.Cmp(b.V)
		switch name {
		case "lt":
			return value.Bool(c < 0), nil
		case "le":
			return value.Bool(c <= 0), nil
		case "gt":
			return value.Bool(c > 0), nil
		default:
			return value.Bool(c >= 0), nil
		}
	case "eq":
		return value.Bool(value.Equal(args[0], args[1])), nil
	case "andb":
		return value.Bool(value.IsTrue(args[0]) && value.IsTrue(args[1])), nil
	case "orb":
		return value.Bool(value.IsTrue(args[0]) || value.IsTrue(args[1])), nil
	case "negb":
		return value.Bool(!value.IsTrue(args[0])), nil
	case "concat":
		if a, ok := args[0].(value.Str); ok {
			b, ok2 := args[1].(value.Str)
			if !ok2 {
				return nil, rtErrf("concat type mismatch")
			}
			return value.Str{S: a.S + b.S}, nil
		}
		a, ok1 := args[0].(value.ByStr)
		b, ok2 := args[1].(value.ByStr)
		if !ok1 || !ok2 {
			return nil, rtErrf("concat expects strings or byte strings")
		}
		out := make([]byte, 0, len(a.B)+len(b.B))
		out = append(out, a.B...)
		out = append(out, b.B...)
		return value.ByStr{Ty: ast.TyByStr, B: out}, nil
	case "strlen":
		s, ok := args[0].(value.Str)
		if !ok {
			return nil, rtErrf("strlen expects a string")
		}
		return value.Uint32V(uint32(len(s.S))), nil
	case "substr":
		s, ok1 := args[0].(value.Str)
		off, ok2 := args[1].(value.Int)
		n, ok3 := args[2].(value.Int)
		if !ok1 || !ok2 || !ok3 {
			return nil, rtErrf("substr expects (String, Uint32, Uint32)")
		}
		o := int(off.V.Int64())
		l := int(n.V.Int64())
		if o < 0 || l < 0 || o+l > len(s.S) {
			return nil, rtErrf("substr out of bounds")
		}
		return value.Str{S: s.S[o : o+l]}, nil
	case "to_string":
		return value.Str{S: args[0].String()}, nil
	case "sha256hash", "keccak256hash":
		// keccak is modelled with sha256 over a domain-separated input;
		// only determinism and collision resistance matter here.
		input := args[0].String()
		if name == "keccak256hash" {
			input = "keccak:" + input
		}
		h := sha256.Sum256([]byte(input))
		return value.ByStr{Ty: ast.TyByStr32, B: h[:]}, nil
	case "ripemd160hash":
		h := sha256.Sum256([]byte("ripemd:" + args[0].String()))
		return value.ByStr{Ty: ast.TyByStr20, B: h[:20]}, nil
	case "to_uint32", "to_uint64", "to_uint128", "to_uint256",
		"to_int32", "to_int64", "to_int128", "to_int256":
		target := convTarget(name)
		var v *big.Int
		switch a := args[0].(type) {
		case value.Int:
			v = a.V
		case value.Str:
			var ok bool
			v, ok = new(big.Int).SetString(a.S, 10)
			if !ok {
				return value.None(target), nil
			}
		default:
			return nil, rtErrf("%s expects an integer or string", name)
		}
		if !ast.InRange(target, v) {
			return value.None(target), nil
		}
		return value.Some(target, value.Int{Ty: target, V: new(big.Int).Set(v)}), nil
	case "blt":
		a, ok1 := args[0].(value.BNum)
		b, ok2 := args[1].(value.BNum)
		if !ok1 || !ok2 {
			return nil, rtErrf("blt expects block numbers")
		}
		return value.Bool(a.V.Cmp(b.V) < 0), nil
	case "badd":
		a, ok1 := args[0].(value.BNum)
		b, ok2 := args[1].(value.Int)
		if !ok1 || !ok2 {
			return nil, rtErrf("badd expects (BNum, integer)")
		}
		return value.BNum{V: new(big.Int).Add(a.V, b.V)}, nil
	case "bsub":
		a, ok1 := args[0].(value.BNum)
		b, ok2 := args[1].(value.BNum)
		if !ok1 || !ok2 {
			return nil, rtErrf("bsub expects block numbers")
		}
		d := new(big.Int).Sub(a.V, b.V)
		if !ast.InRange(ast.TyInt256, d) {
			return nil, rtErrf("bsub overflow")
		}
		return value.Int{Ty: ast.TyInt256, V: d}, nil
	case "contains":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("contains expects a map")
		}
		_, found := m.Get(args[1])
		return value.Bool(found), nil
	case "put":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("put expects a map")
		}
		out := m.Copy()
		out.Set(args[1], args[2])
		return out, nil
	case "get":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("get expects a map")
		}
		v, found := m.Get(args[1])
		if !found {
			return value.None(m.ValType), nil
		}
		return value.Some(m.ValType, v), nil
	case "remove":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("remove expects a map")
		}
		out := m.Copy()
		out.Delete(args[1])
		return out, nil
	case "to_list":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("to_list expects a map")
		}
		elemTy := ast.TyPair(m.KeyType, m.ValType)
		lst := value.Value(value.NilList(elemTy))
		keys := m.SortedKeys()
		for i := len(keys) - 1; i >= 0; i-- {
			k := keys[i]
			pair := value.PairV(m.KeyType, m.ValType, m.Key(k), m.Entries[k])
			lst = value.Cons(elemTy, pair, lst)
		}
		return lst, nil
	case "size":
		m, ok := args[0].(*value.Map)
		if !ok {
			return nil, rtErrf("size expects a map")
		}
		return value.Uint32V(uint32(m.Len())), nil
	case "to_bystr":
		b, ok := args[0].(value.ByStr)
		if !ok {
			return nil, rtErrf("to_bystr expects a byte string")
		}
		return value.ByStr{Ty: ast.TyByStr, B: b.B}, nil
	case "schnorr_verify":
		// Modelled verification: accepts iff the "signature" is the
		// sha256 hash of pubkey string + message string.
		pk := args[0].String()
		msg := args[1].String()
		sig, ok := args[2].(value.ByStr)
		if !ok {
			return nil, rtErrf("schnorr_verify expects a byte-string signature")
		}
		h := sha256.Sum256([]byte("schnorr:" + pk + ":" + msg))
		return value.Bool(string(sig.B) == string(h[:])), nil
	}
	return nil, rtErrf("unimplemented builtin %s", name)
}

func evalArith(name string, args []value.Value) (value.Value, error) {
	a, ok1 := args[0].(value.Int)
	b, ok2 := args[1].(value.Int)
	if !ok1 || !ok2 {
		return nil, rtErrf("builtin %s expects integers", name)
	}
	if name != "pow" && a.Ty.Kind != b.Ty.Kind {
		return nil, rtErrf("builtin %s expects matching integer types", name)
	}
	res := new(big.Int)
	switch name {
	case "add":
		res.Add(a.V, b.V)
	case "sub":
		res.Sub(a.V, b.V)
	case "mul":
		res.Mul(a.V, b.V)
	case "div":
		if b.V.Sign() == 0 {
			return nil, rtErrf("division by zero")
		}
		res.Quo(a.V, b.V)
	case "rem":
		if b.V.Sign() == 0 {
			return nil, rtErrf("remainder by zero")
		}
		res.Rem(a.V, b.V)
	case "pow":
		if b.Ty.Kind != ast.Uint32 {
			return nil, rtErrf("pow exponent must be Uint32")
		}
		res.Exp(a.V, b.V, nil)
	}
	if !ast.InRange(a.Ty, res) {
		return nil, rtErrf("integer overflow in %s on %s", name, a.Ty)
	}
	return value.Int{Ty: a.Ty, V: res}, nil
}
