package ast

import (
	"fmt"
	"math/big"
	"strings"
)

// Literal is a Scilla literal: a typed integer, a string, a byte string,
// or a block number.
type Literal struct {
	Type PrimType
	// Int holds the value for integer and BNum literals.
	Int *big.Int
	// Str holds the value for string literals.
	Str string
	// Bytes holds the value for ByStr* literals.
	Bytes []byte
}

// IntLit builds an integer literal of the given primitive type.
func IntLit(t PrimType, v int64) Literal {
	return Literal{Type: t, Int: big.NewInt(v)}
}

// BigIntLit builds an integer literal from a big.Int (not copied).
func BigIntLit(t PrimType, v *big.Int) Literal {
	return Literal{Type: t, Int: v}
}

// StrLit builds a string literal.
func StrLit(s string) Literal {
	return Literal{Type: TyString, Str: s}
}

// ByStrLit builds a byte-string literal, choosing ByStr20/ByStr32/ByStr
// based on length.
func ByStrLit(b []byte) Literal {
	t := TyByStr
	switch len(b) {
	case 20:
		t = TyByStr20
	case 32:
		t = TyByStr32
	}
	return Literal{Type: t, Bytes: b}
}

// String renders the literal in Scilla surface syntax.
func (l Literal) String() string {
	switch {
	case l.Type.IsInt():
		return fmt.Sprintf("%s %s", l.Type.String(), l.Int.String())
	case l.Type.Kind == StringKind:
		return fmt.Sprintf("%q", l.Str)
	case l.Type.Kind == BNum:
		return fmt.Sprintf("BNum %s", l.Int.String())
	default:
		var sb strings.Builder
		sb.WriteString("0x")
		for _, b := range l.Bytes {
			fmt.Fprintf(&sb, "%02x", b)
		}
		return sb.String()
	}
}

// Equal reports deep equality of two literals.
func (l Literal) Equal(o Literal) bool {
	if !l.Type.Equal(o.Type) {
		return false
	}
	switch {
	case l.Int != nil && o.Int != nil:
		return l.Int.Cmp(o.Int) == 0
	case l.Int != nil || o.Int != nil:
		return false
	case l.Type.Kind == StringKind:
		return l.Str == o.Str
	default:
		return string(l.Bytes) == string(o.Bytes)
	}
}

// MinInt returns the minimum representable value of an integer primitive.
func MinInt(t PrimType) *big.Int {
	if !t.IsSigned() {
		return big.NewInt(0)
	}
	// -(2^(w-1))
	v := new(big.Int).Lsh(big.NewInt(1), uint(t.IntWidth()-1))
	return v.Neg(v)
}

// MaxInt returns the maximum representable value of an integer primitive.
func MaxInt(t PrimType) *big.Int {
	w := uint(t.IntWidth())
	if t.IsSigned() {
		w--
	}
	v := new(big.Int).Lsh(big.NewInt(1), w)
	return v.Sub(v, big.NewInt(1))
}

// intBounds caches per-kind range bounds so the hot range check after
// every arithmetic builtin does not rebuild two big.Ints. The cached
// values are never handed out; MinInt/MaxInt still return fresh copies.
var intBounds [UnitKind + 1]struct{ min, max *big.Int }

func init() {
	for _, t := range []PrimType{TyInt32, TyInt64, TyInt128, TyInt256, TyUint32, TyUint64, TyUint128, TyUint256} {
		intBounds[t.Kind].min = MinInt(t)
		intBounds[t.Kind].max = MaxInt(t)
	}
}

// InRange reports whether v fits in integer primitive t.
func InRange(t PrimType, v *big.Int) bool {
	b := &intBounds[t.Kind]
	if b.min == nil {
		return v.Cmp(MinInt(t)) >= 0 && v.Cmp(MaxInt(t)) <= 0
	}
	return v.Cmp(b.min) >= 0 && v.Cmp(b.max) <= 0
}
