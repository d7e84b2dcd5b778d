// Package ast defines the abstract syntax of the Scilla subset used
// throughout this repository: types, literals, expressions, statements,
// and contract modules. The subset follows Fig. 4 of the CoSplit paper
// (Pîrlea, Kumar, Sergey; PLDI 2021).
package ast

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all Scilla types.
type Type interface {
	typ()
	// String renders the type in Scilla surface syntax.
	String() string
	// Equal reports structural type equality.
	Equal(other Type) bool
}

// PrimKind enumerates the primitive types of the subset.
type PrimKind int

// Primitive type kinds.
const (
	Int32 PrimKind = iota
	Int64
	Int128
	Int256
	Uint32
	Uint64
	Uint128
	Uint256
	StringKind
	ByStr20
	ByStr32
	ByStr // arbitrary-length byte string
	BNum  // block number
	MsgKind
	EventKind
	UnitKind
)

// PrimType is a primitive (non-compound) type.
type PrimType struct {
	Kind PrimKind
}

func (PrimType) typ() {}

// IsInt reports whether the primitive is a (signed or unsigned) integer.
func (p PrimType) IsInt() bool {
	switch p.Kind {
	case Int32, Int64, Int128, Int256, Uint32, Uint64, Uint128, Uint256:
		return true
	}
	return false
}

// IsMapKey reports whether the primitive may key a map: an integer,
// String, a byte string or BNum, the values value.CanonicalKey renders
// and value.Map.Key rebuilds.
func (p PrimType) IsMapKey() bool { return Int32 <= p.Kind && p.Kind <= BNum }

// IsSigned reports whether the primitive is a signed integer type.
func (p PrimType) IsSigned() bool {
	switch p.Kind {
	case Int32, Int64, Int128, Int256:
		return true
	}
	return false
}

// IntWidth returns the bit width of an integer primitive, or 0.
func (p PrimType) IntWidth() int {
	switch p.Kind {
	case Int32, Uint32:
		return 32
	case Int64, Uint64:
		return 64
	case Int128, Uint128:
		return 128
	case Int256, Uint256:
		return 256
	}
	return 0
}

func (p PrimType) String() string {
	switch p.Kind {
	case Int32:
		return "Int32"
	case Int64:
		return "Int64"
	case Int128:
		return "Int128"
	case Int256:
		return "Int256"
	case Uint32:
		return "Uint32"
	case Uint64:
		return "Uint64"
	case Uint128:
		return "Uint128"
	case Uint256:
		return "Uint256"
	case StringKind:
		return "String"
	case ByStr20:
		return "ByStr20"
	case ByStr32:
		return "ByStr32"
	case ByStr:
		return "ByStr"
	case BNum:
		return "BNum"
	case MsgKind:
		return "Message"
	case EventKind:
		return "Event"
	case UnitKind:
		return "Unit"
	}
	return fmt.Sprintf("Prim(%d)", int(p.Kind))
}

// Equal implements Type.
func (p PrimType) Equal(other Type) bool {
	o, ok := other.(PrimType)
	return ok && o.Kind == p.Kind
}

// MapType is the type of mutable key-value maps, `Map kt vt`.
type MapType struct {
	Key Type
	Val Type
}

func (MapType) typ() {}

func (m MapType) String() string {
	return fmt.Sprintf("Map %s %s", parens(m.Key), parens(m.Val))
}

// Equal implements Type.
func (m MapType) Equal(other Type) bool {
	o, ok := other.(MapType)
	return ok && m.Key.Equal(o.Key) && m.Val.Equal(o.Val)
}

// FunType is the type of pure functions, `at -> rt`.
type FunType struct {
	Arg Type
	Ret Type
}

func (FunType) typ() {}

func (f FunType) String() string {
	return fmt.Sprintf("%s -> %s", parens(f.Arg), f.Ret.String())
}

// Equal implements Type.
func (f FunType) Equal(other Type) bool {
	o, ok := other.(FunType)
	return ok && f.Arg.Equal(o.Arg) && f.Ret.Equal(o.Ret)
}

// ADTType is an applied algebraic data type such as `Bool`,
// `Option Uint128`, or a user-defined type.
type ADTType struct {
	Name string
	Args []Type
}

func (ADTType) typ() {}

func (a ADTType) String() string {
	if len(a.Args) == 0 {
		return a.Name
	}
	parts := make([]string, 0, len(a.Args)+1)
	parts = append(parts, a.Name)
	for _, t := range a.Args {
		parts = append(parts, parens(t))
	}
	return strings.Join(parts, " ")
}

// Equal implements Type.
func (a ADTType) Equal(other Type) bool {
	o, ok := other.(ADTType)
	if !ok || o.Name != a.Name || len(o.Args) != len(a.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// TypeVar is a type variable bound by a tfun.
type TypeVar struct {
	Name string
}

func (TypeVar) typ() {}

func (v TypeVar) String() string { return v.Name }

// Equal implements Type.
func (v TypeVar) Equal(other Type) bool {
	o, ok := other.(TypeVar)
	return ok && o.Name == v.Name
}

// PolyType is the type of a type abstraction, `forall 'A. t`.
type PolyType struct {
	Var  string
	Body Type
}

func (PolyType) typ() {}

func (p PolyType) String() string {
	return fmt.Sprintf("forall %s. %s", p.Var, p.Body.String())
}

// Equal implements Type (alpha-equivalence up to identical binder names).
func (p PolyType) Equal(other Type) bool {
	o, ok := other.(PolyType)
	if !ok {
		return false
	}
	if p.Var == o.Var {
		return p.Body.Equal(o.Body)
	}
	fresh := TypeVar{Name: "'#eq"}
	return SubstType(p.Body, p.Var, fresh).Equal(SubstType(o.Body, o.Var, fresh))
}

// parens wraps compound types in parentheses for printing.
func parens(t Type) string {
	switch t.(type) {
	case MapType, FunType, PolyType:
		return "(" + t.String() + ")"
	case ADTType:
		if len(t.(ADTType).Args) > 0 {
			return "(" + t.String() + ")"
		}
	}
	return t.String()
}

// SubstType substitutes type variable v with replacement r in t.
func SubstType(t Type, v string, r Type) Type {
	switch tt := t.(type) {
	case PrimType:
		return tt
	case TypeVar:
		if tt.Name == v {
			return r
		}
		return tt
	case MapType:
		return MapType{Key: SubstType(tt.Key, v, r), Val: SubstType(tt.Val, v, r)}
	case FunType:
		return FunType{Arg: SubstType(tt.Arg, v, r), Ret: SubstType(tt.Ret, v, r)}
	case ADTType:
		args := make([]Type, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = SubstType(a, v, r)
		}
		return ADTType{Name: tt.Name, Args: args}
	case PolyType:
		if tt.Var == v {
			return tt // shadowed
		}
		return PolyType{Var: tt.Var, Body: SubstType(tt.Body, v, r)}
	}
	return t
}

// Convenience constructors for commonly used types.
var (
	TyInt32   = PrimType{Kind: Int32}
	TyInt64   = PrimType{Kind: Int64}
	TyInt128  = PrimType{Kind: Int128}
	TyInt256  = PrimType{Kind: Int256}
	TyUint32  = PrimType{Kind: Uint32}
	TyUint64  = PrimType{Kind: Uint64}
	TyUint128 = PrimType{Kind: Uint128}
	TyUint256 = PrimType{Kind: Uint256}
	TyString  = PrimType{Kind: StringKind}
	TyByStr20 = PrimType{Kind: ByStr20}
	TyByStr32 = PrimType{Kind: ByStr32}
	TyByStr   = PrimType{Kind: ByStr}
	TyBNum    = PrimType{Kind: BNum}
	TyMessage = PrimType{Kind: MsgKind}
	TyEvent   = PrimType{Kind: EventKind}
	TyUnit    = PrimType{Kind: UnitKind}
)

// TyBool is the builtin Bool ADT type.
var TyBool = ADTType{Name: "Bool"}

// TyOption applies the builtin Option ADT to an element type.
func TyOption(t Type) ADTType { return ADTType{Name: "Option", Args: []Type{t}} }

// TyList applies the builtin List ADT to an element type.
func TyList(t Type) ADTType { return ADTType{Name: "List", Args: []Type{t}} }

// TyPair applies the builtin Pair ADT to two element types.
func TyPair(a, b Type) ADTType { return ADTType{Name: "Pair", Args: []Type{a, b}} }

// PrimTypeByName resolves a primitive type name; ok is false if unknown.
func PrimTypeByName(name string) (PrimType, bool) {
	switch name {
	case "Int32":
		return TyInt32, true
	case "Int64":
		return TyInt64, true
	case "Int128":
		return TyInt128, true
	case "Int256":
		return TyInt256, true
	case "Uint32":
		return TyUint32, true
	case "Uint64":
		return TyUint64, true
	case "Uint128":
		return TyUint128, true
	case "Uint256":
		return TyUint256, true
	case "String":
		return TyString, true
	case "ByStr20":
		return TyByStr20, true
	case "ByStr32":
		return TyByStr32, true
	case "ByStr":
		return TyByStr, true
	case "BNum":
		return TyBNum, true
	case "Message":
		return TyMessage, true
	case "Event":
		return TyEvent, true
	case "Unit":
		return TyUnit, true
	}
	return PrimType{}, false
}
