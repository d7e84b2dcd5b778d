package ast_test

import (
	"math/big"
	"testing"

	"cosplit/internal/scilla/ast"
)

func TestTypeStrings(t *testing.T) {
	cases := map[string]ast.Type{
		"Uint128":                          ast.TyUint128,
		"Map ByStr20 Uint128":              ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128},
		"Map ByStr20 (Map String Uint128)": ast.MapType{Key: ast.TyByStr20, Val: ast.MapType{Key: ast.TyString, Val: ast.TyUint128}},
		"Option Uint32":                    ast.TyOption(ast.TyUint32),
		"List (Pair ByStr20 Uint128)":      ast.TyList(ast.TyPair(ast.TyByStr20, ast.TyUint128)),
		"Uint128 -> Bool":                  ast.FunType{Arg: ast.TyUint128, Ret: ast.TyBool},
		"(Uint128 -> Bool) -> Uint128":     ast.FunType{Arg: ast.FunType{Arg: ast.TyUint128, Ret: ast.TyBool}, Ret: ast.TyUint128},
		"forall 'A. List 'A":               ast.PolyType{Var: "'A", Body: ast.TyList(ast.TypeVar{Name: "'A"})},
	}
	for want, ty := range cases {
		if got := ty.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	a := ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128}
	b := ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128}
	if !a.Equal(b) {
		t.Error("identical map types unequal")
	}
	if a.Equal(ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint32}) {
		t.Error("different map types equal")
	}
	if ast.TyUint128.Equal(ast.TyInt128) {
		t.Error("signedness ignored")
	}
	if !ast.TyOption(ast.TyUint128).Equal(ast.TyOption(ast.TyUint128)) {
		t.Error("option types unequal")
	}
	if ast.TyOption(ast.TyUint128).Equal(ast.TyList(ast.TyUint128)) {
		t.Error("different ADTs equal")
	}
}

func TestPolyAlphaEquivalence(t *testing.T) {
	a := ast.PolyType{Var: "'A", Body: ast.TyList(ast.TypeVar{Name: "'A"})}
	b := ast.PolyType{Var: "'B", Body: ast.TyList(ast.TypeVar{Name: "'B"})}
	if !a.Equal(b) {
		t.Error("alpha-equivalent polytypes unequal")
	}
	c := ast.PolyType{Var: "'B", Body: ast.TyList(ast.TypeVar{Name: "'C"})}
	if a.Equal(c) {
		t.Error("non-equivalent polytypes equal")
	}
}

func TestSubstType(t *testing.T) {
	tv := ast.TypeVar{Name: "'A"}
	body := ast.FunType{Arg: tv, Ret: ast.TyList(tv)}
	got := ast.SubstType(body, "'A", ast.TyUint128)
	want := "Uint128 -> List Uint128"
	if got.String() != want {
		t.Errorf("SubstType = %s, want %s", got, want)
	}
	// Shadowed binders are untouched.
	shadow := ast.PolyType{Var: "'A", Body: tv}
	got2 := ast.SubstType(shadow, "'A", ast.TyUint128)
	if got2.String() != "forall 'A. 'A" {
		t.Errorf("shadowed substitution = %s", got2)
	}
}

func TestIntPrimProperties(t *testing.T) {
	for _, c := range []struct {
		ty     ast.PrimType
		width  int
		signed bool
	}{
		{ast.TyInt32, 32, true},
		{ast.TyInt64, 64, true},
		{ast.TyInt128, 128, true},
		{ast.TyInt256, 256, true},
		{ast.TyUint32, 32, false},
		{ast.TyUint64, 64, false},
		{ast.TyUint128, 128, false},
		{ast.TyUint256, 256, false},
	} {
		if !c.ty.IsInt() {
			t.Errorf("%s not an int", c.ty)
		}
		if c.ty.IntWidth() != c.width {
			t.Errorf("%s width = %d", c.ty, c.ty.IntWidth())
		}
		if c.ty.IsSigned() != c.signed {
			t.Errorf("%s signedness wrong", c.ty)
		}
		// MIN <= 0 <= MAX and the bounds are in range.
		if !ast.InRange(c.ty, big.NewInt(0)) {
			t.Errorf("0 out of range for %s", c.ty)
		}
		if !ast.InRange(c.ty, ast.MaxInt(c.ty)) || !ast.InRange(c.ty, ast.MinInt(c.ty)) {
			t.Errorf("bounds out of range for %s", c.ty)
		}
		over := new(big.Int).Add(ast.MaxInt(c.ty), big.NewInt(1))
		if ast.InRange(c.ty, over) {
			t.Errorf("MAX+1 in range for %s", c.ty)
		}
	}
	if ast.TyString.IsInt() || ast.TyBNum.IsInt() {
		t.Error("non-int prims reported as int")
	}
}

func TestPrimTypeByName(t *testing.T) {
	for _, name := range []string{"Int32", "Uint256", "String", "ByStr20", "BNum", "Message"} {
		p, ok := ast.PrimTypeByName(name)
		if !ok || p.String() != name {
			t.Errorf("PrimTypeByName(%s) = %s, %v", name, p, ok)
		}
	}
	if _, ok := ast.PrimTypeByName("Bool"); ok {
		t.Error("Bool is an ADT, not a prim")
	}
}

func TestLiteralStringAndEqual(t *testing.T) {
	cases := []struct {
		lit  ast.Literal
		want string
	}{
		{ast.IntLit(ast.TyUint128, 42), "Uint128 42"},
		{ast.IntLit(ast.TyInt32, -5), "Int32 -5"},
		{ast.StrLit("hi"), `"hi"`},
		{ast.Literal{Type: ast.TyBNum, Int: big.NewInt(9)}, "BNum 9"},
		{ast.ByStrLit(make([]byte, 20)), "0x0000000000000000000000000000000000000000"},
	}
	for _, c := range cases {
		if got := c.lit.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if !c.lit.Equal(c.lit) {
			t.Errorf("literal %s not equal to itself", c.want)
		}
	}
	if ast.IntLit(ast.TyUint128, 1).Equal(ast.IntLit(ast.TyUint64, 1)) {
		t.Error("literals of different types equal")
	}
	if ast.StrLit("a").Equal(ast.StrLit("b")) {
		t.Error("different strings equal")
	}
}

func TestByStrLitWidths(t *testing.T) {
	if ast.ByStrLit(make([]byte, 20)).Type.Kind != ast.ByStr20 {
		t.Error("20-byte literal not ByStr20")
	}
	if ast.ByStrLit(make([]byte, 32)).Type.Kind != ast.ByStr32 {
		t.Error("32-byte literal not ByStr32")
	}
	if ast.ByStrLit(make([]byte, 7)).Type.Kind != ast.ByStr {
		t.Error("odd-width literal not ByStr")
	}
}

func TestContractAccessors(t *testing.T) {
	c := &ast.Contract{
		Name: "C",
		Transitions: []ast.Transition{
			{Name: "T1"}, {Name: "T2"},
		},
	}
	if c.TransitionByName("T2") == nil || c.TransitionByName("T3") != nil {
		t.Error("TransitionByName wrong")
	}
}
