package stdlib_test

import (
	"math/big"
	"testing"
	"testing/quick"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/stdlib"
	"cosplit/internal/scilla/value"
)

func u128(v uint64) value.Int { return value.Uint128(v) }

func evalB(t *testing.T, name string, args ...value.Value) value.Value {
	t.Helper()
	v, err := stdlib.Eval(name, args)
	if err != nil {
		t.Fatalf("Eval(%s): %v", name, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	if got := evalB(t, "add", u128(2), u128(3)); got.(value.Int).V.Uint64() != 5 {
		t.Errorf("add = %s", got)
	}
	if got := evalB(t, "sub", u128(5), u128(3)); got.(value.Int).V.Uint64() != 2 {
		t.Errorf("sub = %s", got)
	}
	if got := evalB(t, "mul", u128(4), u128(6)); got.(value.Int).V.Uint64() != 24 {
		t.Errorf("mul = %s", got)
	}
	if got := evalB(t, "div", u128(7), u128(2)); got.(value.Int).V.Uint64() != 3 {
		t.Errorf("div = %s", got)
	}
	if got := evalB(t, "rem", u128(7), u128(2)); got.(value.Int).V.Uint64() != 1 {
		t.Errorf("rem = %s", got)
	}
	if got := evalB(t, "pow", u128(2), value.Uint32V(10)); got.(value.Int).V.Uint64() != 1024 {
		t.Errorf("pow = %s", got)
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := stdlib.Eval("sub", []value.Value{u128(1), u128(2)}); err == nil {
		t.Error("uint underflow not detected")
	}
	if _, err := stdlib.Eval("div", []value.Value{u128(1), u128(0)}); err == nil {
		t.Error("division by zero not detected")
	}
	max := value.Int{Ty: ast.TyUint128, V: ast.MaxInt(ast.TyUint128)}
	if _, err := stdlib.Eval("add", []value.Value{max, u128(1)}); err == nil {
		t.Error("overflow not detected")
	}
	if _, err := stdlib.Eval("add", []value.Value{u128(1), value.Uint32V(1)}); err == nil {
		t.Error("mixed-width arithmetic not rejected")
	}
}

// Property: add and sub are inverses when in range.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := u128(uint64(a)), u128(uint64(b))
		sum, err := stdlib.Eval("add", []value.Value{x, y})
		if err != nil {
			return false
		}
		back, err := stdlib.Eval("sub", []value.Value{sum, y})
		if err != nil {
			return false
		}
		return back.(value.Int).V.Uint64() == uint64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison builtins agree with big.Int comparison.
func TestComparisons(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := u128(uint64(a)), u128(uint64(b))
		lt, _ := stdlib.Eval("lt", []value.Value{x, y})
		le, _ := stdlib.Eval("le", []value.Value{x, y})
		gt, _ := stdlib.Eval("gt", []value.Value{x, y})
		ge, _ := stdlib.Eval("ge", []value.Value{x, y})
		eq, _ := stdlib.Eval("eq", []value.Value{x, y})
		return value.IsTrue(lt) == (a < b) &&
			value.IsTrue(le) == (a <= b) &&
			value.IsTrue(gt) == (a > b) &&
			value.IsTrue(ge) == (a >= b) &&
			value.IsTrue(eq) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolBuiltins(t *testing.T) {
	tr, fa := value.True(), value.False()
	if !value.IsTrue(evalB(t, "andb", tr, tr)) || value.IsTrue(evalB(t, "andb", tr, fa)) {
		t.Error("andb wrong")
	}
	if !value.IsTrue(evalB(t, "orb", fa, tr)) || value.IsTrue(evalB(t, "orb", fa, fa)) {
		t.Error("orb wrong")
	}
	if value.IsTrue(evalB(t, "negb", tr)) || !value.IsTrue(evalB(t, "negb", fa)) {
		t.Error("negb wrong")
	}
}

func TestStringBuiltins(t *testing.T) {
	if got := evalB(t, "concat", value.Str{S: "ab"}, value.Str{S: "cd"}); got.(value.Str).S != "abcd" {
		t.Errorf("concat = %s", got)
	}
	if got := evalB(t, "strlen", value.Str{S: "hello"}); got.(value.Int).V.Uint64() != 5 {
		t.Errorf("strlen = %s", got)
	}
	if got := evalB(t, "substr", value.Str{S: "hello"}, value.Uint32V(1), value.Uint32V(3)); got.(value.Str).S != "ell" {
		t.Errorf("substr = %s", got)
	}
	if _, err := stdlib.Eval("substr", []value.Value{value.Str{S: "hi"}, value.Uint32V(1), value.Uint32V(5)}); err == nil {
		t.Error("substr out of bounds not detected")
	}
}

func TestHashDeterministic(t *testing.T) {
	a := evalB(t, "sha256hash", value.Str{S: "x"})
	b := evalB(t, "sha256hash", value.Str{S: "x"})
	c := evalB(t, "sha256hash", value.Str{S: "y"})
	if !value.Equal(a, b) {
		t.Error("hash not deterministic")
	}
	if value.Equal(a, c) {
		t.Error("hash collision on different inputs (suspicious)")
	}
	if len(a.(value.ByStr).B) != 32 {
		t.Error("sha256hash must be 32 bytes")
	}
	if len(evalB(t, "ripemd160hash", value.Str{S: "x"}).(value.ByStr).B) != 20 {
		t.Error("ripemd160hash must be 20 bytes")
	}
	// keccak is domain-separated from sha256 in our model.
	if value.Equal(a, evalB(t, "keccak256hash", value.Str{S: "x"})) {
		t.Error("keccak and sha256 should differ")
	}
}

func TestConversions(t *testing.T) {
	got := evalB(t, "to_uint32", u128(42))
	some, ok := got.(value.ADT)
	if !ok || some.Constr != "Some" {
		t.Fatalf("to_uint32 = %s", got)
	}
	if some.Args[0].(value.Int).V.Uint64() != 42 {
		t.Errorf("converted value = %s", some.Args[0])
	}
	// Out of range → None.
	big128 := value.Int{Ty: ast.TyUint128, V: new(big.Int).Lsh(big.NewInt(1), 100)}
	if n := evalB(t, "to_uint32", big128).(value.ADT); n.Constr != "None" {
		t.Errorf("out-of-range conversion = %s", n)
	}
	// From string.
	if s := evalB(t, "to_uint128", value.Str{S: "123"}).(value.ADT); s.Constr != "Some" {
		t.Errorf("string conversion = %s", s)
	}
	if s := evalB(t, "to_uint128", value.Str{S: "abc"}).(value.ADT); s.Constr != "None" {
		t.Errorf("bad string conversion = %s", s)
	}
}

func TestMapBuiltins(t *testing.T) {
	m := value.NewMap(ast.TyString, ast.TyUint128)
	k := value.Str{S: "a"}
	m1 := evalB(t, "put", m, k, u128(1)).(*value.Map)
	if m.Len() != 0 {
		t.Error("put mutated its input (must be pure)")
	}
	if !value.IsTrue(evalB(t, "contains", m1, k)) {
		t.Error("contains after put = false")
	}
	got := evalB(t, "get", m1, k).(value.ADT)
	if got.Constr != "Some" || got.Args[0].(value.Int).V.Uint64() != 1 {
		t.Errorf("get = %s", got)
	}
	m2 := evalB(t, "remove", m1, k).(*value.Map)
	if value.IsTrue(evalB(t, "contains", m2, k)) {
		t.Error("contains after remove = true")
	}
	if m1.Len() != 1 {
		t.Error("remove mutated its input")
	}
	if evalB(t, "size", m1).(value.Int).V.Uint64() != 1 {
		t.Error("size wrong")
	}
	lst := evalB(t, "to_list", m1)
	items, ok := value.ListValues(lst)
	if !ok || len(items) != 1 {
		t.Fatalf("to_list = %s", lst)
	}
	if pair := items[0].(value.ADT); !value.Equal(pair.Args[0], k) || !value.Equal(pair.Args[1], u128(1)) {
		t.Errorf("to_list pair = %s, want (%s, 1)", pair, k)
	}
}

func TestBNumBuiltins(t *testing.T) {
	b1 := value.BNum{V: big.NewInt(10)}
	b2 := value.BNum{V: big.NewInt(20)}
	if !value.IsTrue(evalB(t, "blt", b1, b2)) {
		t.Error("blt wrong")
	}
	sum := evalB(t, "badd", b1, value.Uint32V(5))
	if sum.(value.BNum).V.Int64() != 15 {
		t.Errorf("badd = %s", sum)
	}
	diff := evalB(t, "bsub", b2, b1)
	if diff.(value.Int).V.Int64() != 10 {
		t.Errorf("bsub = %s", diff)
	}
}

func TestTypeOfMirrorsEval(t *testing.T) {
	// Every builtin's TypeOf result must describe Eval's output on
	// well-typed arguments.
	cases := []struct {
		name string
		args []value.Value
	}{
		{"add", []value.Value{u128(1), u128(2)}},
		{"lt", []value.Value{u128(1), u128(2)}},
		{"concat", []value.Value{value.Str{S: "a"}, value.Str{S: "b"}}},
		{"sha256hash", []value.Value{value.Str{S: "x"}}},
		{"to_uint32", []value.Value{u128(1)}},
		{"strlen", []value.Value{value.Str{S: "x"}}},
	}
	for _, c := range cases {
		argTypes := make([]ast.Type, len(c.args))
		for i, a := range c.args {
			argTypes[i] = a.Type()
		}
		wantT, err := stdlib.TypeOf(c.name, argTypes)
		if err != nil {
			t.Errorf("TypeOf(%s): %v", c.name, err)
			continue
		}
		got, err := stdlib.Eval(c.name, c.args)
		if err != nil {
			t.Errorf("Eval(%s): %v", c.name, err)
			continue
		}
		if !got.Type().Equal(wantT) {
			t.Errorf("%s: TypeOf says %s but Eval returned %s", c.name, wantT, got.Type())
		}
	}
}

func TestCommutativeOpsSet(t *testing.T) {
	if !stdlib.CommutativeOps["add"] || !stdlib.CommutativeOps["sub"] {
		t.Error("add and sub must be IntMerge-compatible")
	}
	if stdlib.CommutativeOps["mul"] || stdlib.CommutativeOps["concat"] {
		t.Error("mul/concat must not be IntMerge-compatible")
	}
}

func TestArity(t *testing.T) {
	if n, ok := stdlib.Arity("add"); !ok || n != 2 {
		t.Errorf("Arity(add) = %d,%v", n, ok)
	}
	if _, ok := stdlib.Arity("frobnicate"); ok {
		t.Error("unknown builtin has arity")
	}
}
