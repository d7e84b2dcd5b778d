// Package value defines the runtime value representation shared by the
// Scilla interpreter, the builtin library, and the blockchain state
// machinery.
package value

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"cosplit/internal/scilla/ast"
)

// Value is a runtime Scilla value.
type Value interface {
	value()
	// Type returns the static type of the value.
	Type() ast.Type
	// String renders the value for display and canonical key encoding.
	String() string
}

// Int is an integer value of a specific signed/unsigned width.
type Int struct {
	Ty ast.PrimType
	V  *big.Int
}

func (Int) value() {}

// Type implements Value.
func (i Int) Type() ast.Type { return i.Ty }

func (i Int) String() string { return i.V.String() }

// NewInt builds an integer value, panicking if out of range (callers
// validate or construct from checked arithmetic).
func NewInt(t ast.PrimType, v *big.Int) Int {
	if !ast.InRange(t, v) {
		panic(fmt.Sprintf("value %s out of range for %s", v, t))
	}
	return Int{Ty: t, V: v}
}

// Uint128 builds a Uint128 value from a uint64.
func Uint128(v uint64) Int {
	return Int{Ty: ast.TyUint128, V: new(big.Int).SetUint64(v)}
}

// Uint32V builds a Uint32 value from a uint32.
func Uint32V(v uint32) Int {
	return Int{Ty: ast.TyUint32, V: new(big.Int).SetUint64(uint64(v))}
}

// Str is a string value.
type Str struct{ S string }

func (Str) value() {}

// Type implements Value.
func (Str) Type() ast.Type { return ast.TyString }

func (s Str) String() string { return s.S }

// ByStr is a byte-string value (fixed-width ByStr20/ByStr32 or dynamic).
type ByStr struct {
	Ty ast.PrimType
	B  []byte
}

func (ByStr) value() {}

// Type implements Value.
func (b ByStr) Type() ast.Type { return b.Ty }

func (b ByStr) String() string {
	buf := make([]byte, 2+2*len(b.B))
	buf[0], buf[1] = '0', 'x'
	hex.Encode(buf[2:], b.B)
	return string(buf)
}

// BNum is a block-number value.
type BNum struct{ V *big.Int }

func (BNum) value() {}

// Type implements Value.
func (BNum) Type() ast.Type { return ast.TyBNum }

func (b BNum) String() string { return b.V.String() }

// ADT is a constructed algebraic value such as True, Some x, or Cons h t.
type ADT struct {
	TypeName string // ADT name, e.g. "Option"
	Constr   string // constructor name, e.g. "Some"
	TypeArgs []ast.Type
	Args     []Value
}

func (ADT) value() {}

// Type implements Value.
func (a ADT) Type() ast.Type {
	return ast.ADTType{Name: a.TypeName, Args: a.TypeArgs}
}

func (a ADT) String() string {
	if len(a.Args) == 0 {
		return a.Constr
	}
	parts := make([]string, 0, len(a.Args)+1)
	parts = append(parts, a.Constr)
	for _, v := range a.Args {
		s := v.String()
		if adt, ok := v.(ADT); ok && len(adt.Args) > 0 {
			s = "(" + s + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// Map is a mutable key-value map: one Go map from each key's canonical
// encoding (CanonicalKey) to its value. A key's value is not kept; Key
// rebuilds it from the canonical form and the static KeyType.
type Map struct {
	KeyType ast.Type
	ValType ast.Type
	Entries map[string]Value // canonical key -> value
}

func (*Map) value() {}

// Type implements Value.
func (m *Map) Type() ast.Type { return ast.MapType{Key: m.KeyType, Val: m.ValType} }

// NewMap builds an empty map value.
func NewMap(kt, vt ast.Type) *Map {
	return &Map{KeyType: kt, ValType: vt, Entries: make(map[string]Value)}
}

// keyBufSize holds the longest canonical key of a fixed-width type
// ("Uint256:" and 78 digits), so Get and Delete render every such key
// on the stack.
const keyBufSize = 96

// Get returns the value at key k, if present. The lookup renders the
// key into a stack buffer and allocates nothing.
func (m *Map) Get(k Value) (Value, bool) {
	var buf [keyBufSize]byte
	v, ok := m.Entries[string(AppendCanonicalKey(buf[:0], k))]
	return v, ok
}

// Set stores v at key k.
func (m *Map) Set(k, v Value) { m.Entries[CanonicalKey(k)] = v }

// Delete removes key k. Its key is rendered on the stack as Get's is,
// but a delete statement copies one longer than 32 bytes to the heap.
func (m *Map) Delete(k Value) {
	var buf [keyBufSize]byte
	delete(m.Entries, string(AppendCanonicalKey(buf[:0], k)))
}

// GetCK returns the value at precomputed canonical key ck, if present.
// Callers must ensure ck == CanonicalKey(k) for the key in question.
func (m *Map) GetCK(ck string) (Value, bool) {
	v, ok := m.Entries[ck]
	return v, ok
}

// SetCK stores v at the key whose canonical encoding ck was
// precomputed.
func (m *Map) SetCK(ck string, v Value) { m.Entries[ck] = v }

// DeleteCK removes the entry at precomputed canonical key ck.
func (m *Map) DeleteCK(ck string) { delete(m.Entries, ck) }

// Key rebuilds the key value whose canonical encoding is ck, as a value
// of the map's KeyType: CanonicalKey(m.Key(ck)) == ck. It panics when
// ck is not the canonical key of a KeyType value; the type checker and
// the wire decoder keep such keys out of every map.
func (m *Map) Key(ck string) Value { return KeyOf(m.KeyType, ck) }

// KeyOf rebuilds the key value of type kt whose canonical encoding is
// ck, as Map.Key does for a map keyed by kt.
func KeyOf(kt ast.Type, ck string) Value {
	t, prim := kt.(ast.PrimType)
	tag, rest, _ := strings.Cut(ck, ":")
	switch {
	case !prim:
	case t.IsInt() && tag == t.String():
		if n, ok := new(big.Int).SetString(rest, 10); ok {
			return Int{Ty: t, V: n}
		}
	case t.Kind == ast.StringKind:
		if s, ok := StrOfKey(ck); ok {
			return Str{S: s}
		}
	case t.Kind == ast.BNum && tag == "n":
		if n, ok := new(big.Int).SetString(rest, 10); ok {
			return BNum{V: n}
		}
	case (t.Kind == ast.ByStr20 || t.Kind == ast.ByStr32 || t.Kind == ast.ByStr) && tag == "b" && strings.HasPrefix(rest, "0x"):
		if b, err := hex.DecodeString(rest[2:]); err == nil {
			return ByStr{Ty: t, B: b}
		}
	}
	panic(fmt.Sprintf("value: %q is not the canonical key of a %s", ck, kt))
}

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.Entries) }

// SortedKeys returns the canonical keys in sorted order (for
// deterministic iteration and printing).
func (m *Map) SortedKeys() []string {
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *Map) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i, k := range m.SortedKeys() {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s => %s", k, m.Entries[k].String())
	}
	sb.WriteString("}")
	return sb.String()
}

// Copy returns a deep copy of the map (values are copied via Copy).
func (m *Map) Copy() *Map {
	out := &Map{KeyType: m.KeyType, ValType: m.ValType, Entries: make(map[string]Value, len(m.Entries))}
	for k, v := range m.Entries {
		out.Entries[k] = Copy(v)
	}
	return out
}

// Msg is a constructed message or event payload.
type Msg struct {
	Entries map[string]Value
}

func (Msg) value() {}

// Type implements Value.
func (Msg) Type() ast.Type { return ast.TyMessage }

func (m Msg) String() string {
	keys := make([]string, 0, len(m.Entries))
	for k := range m.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s : %s", k, m.Entries[k].String())
	}
	sb.WriteString("}")
	return sb.String()
}

// Env is a lexical environment for closures.
type Env struct {
	parent *Env
	vars   map[string]Value
}

// NewEnv returns an empty environment with the given parent (may be nil).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: make(map[string]Value)}
}

// Lookup resolves a name through the environment chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Bind adds a binding to this environment frame.
func (e *Env) Bind(name string, v Value) { e.vars[name] = v }

// Reset empties this frame and re-parents it, retaining the map's
// capacity. Callers reusing a frame (the interpreter's per-call
// transition environment) must guarantee no closure created under the
// old bindings is still reachable.
func (e *Env) Reset(parent *Env) {
	e.parent = parent
	clear(e.vars)
}

// Closure is a function value: a lambda plus its captured environment.
type Closure struct {
	Param     string
	ParamType ast.Type
	Body      ast.Expr
	Env       *Env
}

func (*Closure) value() {}

// Type implements Value. The return type is not tracked dynamically,
// so closures report only their parameter type.
func (c *Closure) Type() ast.Type {
	return ast.FunType{Arg: c.ParamType, Ret: ast.TyUnit}
}

func (c *Closure) String() string { return "<closure>" }

// TClosure is a type-abstraction value (tfun).
type TClosure struct {
	TVar string
	Body ast.Expr
	Env  *Env
}

func (*TClosure) value() {}

// Type implements Value.
func (c *TClosure) Type() ast.Type {
	return ast.PolyType{Var: c.TVar, Body: ast.TyUnit}
}

func (c *TClosure) String() string { return "<tfun>" }

// Unit is the unit value.
type Unit struct{}

func (Unit) value() {}

// Type implements Value.
func (Unit) Type() ast.Type { return ast.TyUnit }

func (Unit) String() string { return "()" }

// CanonicalKey renders a value as a canonical map key. Only primitive
// values are legal map keys; compound values fall back to String.
func CanonicalKey(v Value) string { return string(AppendCanonicalKey(nil, v)) }

// AppendCanonicalKey appends CanonicalKey(v) to b. An integer that fits
// in 64 bits is formatted without allocating.
func AppendCanonicalKey(b []byte, v Value) []byte {
	switch k := v.(type) {
	case Int:
		return appendDecimal(append(append(b, k.Ty.String()...), ':'), k.V)
	case Str:
		return AppendStrKey(b, k.S)
	case ByStr:
		return hex.AppendEncode(append(b, "b:0x"...), k.B)
	case BNum:
		return appendDecimal(append(b, "n:"...), k.V)
	default:
		return append(append(b, "x:"...), v.String()...)
	}
}

// keyEsc escapes a byte of a String key's canonical form (AppendStrKey).
const keyEsc = 0x7f

// AppendStrKey appends the canonical key of the String s to b: "s:" and
// s, each byte below 0x20 written as keyEsc and the byte plus 0x40, and
// keyEsc as keyEsc twice. Every byte of the key is then above the
// keypath separator 0x1f, so a keypath names one tuple of keys and
// keypaths order as their tuples of canonical keys do. A string with
// neither kind of byte renders as itself. s is the string's bytes, so a
// decoder renders a key it has not built.
func AppendStrKey[S ~string | ~[]byte](b []byte, s S) []byte {
	b = append(b, "s:"...)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20:
			b = append(b, keyEsc, c+0x40)
		case c == keyEsc:
			b = append(b, keyEsc, keyEsc)
		default:
			b = append(b, c)
		}
	}
	return b
}

// StrOfKey returns the String whose canonical key is ck (AppendStrKey),
// and false when ck is no String's. A key that escapes nothing yields
// its own bytes after "s:", without a copy.
func StrOfKey(ck string) (string, bool) {
	s, ok := strings.CutPrefix(ck, "s:")
	if !ok {
		return "", false
	}
	i := strings.IndexFunc(s, func(r rune) bool { return r < 0x20 || r == keyEsc })
	if i < 0 {
		return s, true
	}
	b := []byte(s[:i])
	for ; i < len(s); i++ {
		c := s[i]
		if c == keyEsc && i+1 < len(s) {
			i++
			if c = s[i]; c != keyEsc {
				c -= 0x40
			}
		}
		b = append(b, c)
	}
	// A raw control byte or a bad escape decodes to a string whose key
	// is other bytes.
	return string(b), string(AppendStrKey(nil, b)) == ck
}

// appendDecimal appends n in base 10, as n.Append(b, 10) does.
func appendDecimal(b []byte, n *big.Int) []byte {
	if n.IsInt64() {
		return strconv.AppendInt(b, n.Int64(), 10)
	}
	return n.Append(b, 10)
}

// Copy deep-copies a value. Maps are copied structurally and integers
// get their own big.Int. Everything else is returned as-is, an ADT
// without arguments included: only a *Map is mutable, so such an ADT
// (True, None, Nil) holds nothing a copy must separate.
func Copy(v Value) Value {
	switch val := v.(type) {
	case *Map:
		return val.Copy()
	case ADT:
		if len(val.Args) == 0 {
			return v
		}
		args := make([]Value, len(val.Args))
		for i, a := range val.Args {
			args[i] = Copy(a)
		}
		return ADT{TypeName: val.TypeName, Constr: val.Constr, TypeArgs: val.TypeArgs, Args: args}
	case Int:
		return Int{Ty: val.Ty, V: new(big.Int).Set(val.V)}
	default:
		return v
	}
}

// Equal reports structural equality of two values. Closures are never
// equal. Maps compare entry-wise.
func Equal(a, b Value) bool {
	switch av := a.(type) {
	case Int:
		bv, ok := b.(Int)
		return ok && av.Ty == bv.Ty && av.V.Cmp(bv.V) == 0
	case Str:
		bv, ok := b.(Str)
		return ok && av.S == bv.S
	case ByStr:
		bv, ok := b.(ByStr)
		return ok && av.Ty == bv.Ty && string(av.B) == string(bv.B)
	case BNum:
		bv, ok := b.(BNum)
		return ok && av.V.Cmp(bv.V) == 0
	case ADT:
		bv, ok := b.(ADT)
		if !ok || av.Constr != bv.Constr || len(av.Args) != len(bv.Args) {
			return false
		}
		for i := range av.Args {
			if !Equal(av.Args[i], bv.Args[i]) {
				return false
			}
		}
		return true
	case *Map:
		bv, ok := b.(*Map)
		if !ok || av.Len() != bv.Len() {
			return false
		}
		for k, v := range av.Entries {
			bvv, ok := bv.Entries[k]
			if !ok || !Equal(v, bvv) {
				return false
			}
		}
		return true
	case Msg:
		bv, ok := b.(Msg)
		if !ok || len(av.Entries) != len(bv.Entries) {
			return false
		}
		for k, v := range av.Entries {
			bvv, ok := bv.Entries[k]
			if !ok || !Equal(v, bvv) {
				return false
			}
		}
		return true
	case Unit:
		_, ok := b.(Unit)
		return ok
	}
	return false
}

// Convenience ADT constructors.

// True is the Bool True value.
func True() ADT { return ADT{TypeName: "Bool", Constr: "True"} }

// False is the Bool False value.
func False() ADT { return ADT{TypeName: "Bool", Constr: "False"} }

// Bool converts a Go bool to a Scilla Bool.
func Bool(b bool) ADT {
	if b {
		return True()
	}
	return False()
}

// IsTrue reports whether v is the Bool True value.
func IsTrue(v Value) bool {
	a, ok := v.(ADT)
	return ok && a.TypeName == "Bool" && a.Constr == "True"
}

// Some wraps a value in Option.
func Some(t ast.Type, v Value) ADT {
	return ADT{TypeName: "Option", Constr: "Some", TypeArgs: []ast.Type{t}, Args: []Value{v}}
}

// None is the empty Option of element type t.
func None(t ast.Type) ADT {
	return ADT{TypeName: "Option", Constr: "None", TypeArgs: []ast.Type{t}}
}

// NilList is the empty List of element type t.
func NilList(t ast.Type) ADT {
	return ADT{TypeName: "List", Constr: "Nil", TypeArgs: []ast.Type{t}}
}

// Cons prepends a value to a list.
func Cons(t ast.Type, h, tl Value) ADT {
	return ADT{TypeName: "List", Constr: "Cons", TypeArgs: []ast.Type{t}, Args: []Value{h, tl}}
}

// PairV builds a Pair value.
func PairV(ta, tb ast.Type, a, b Value) ADT {
	return ADT{TypeName: "Pair", Constr: "Pair", TypeArgs: []ast.Type{ta, tb}, Args: []Value{a, b}}
}

// FromLiteral converts an AST literal to a runtime value.
func FromLiteral(l ast.Literal) Value {
	switch {
	case l.Type.IsInt():
		return Int{Ty: l.Type, V: new(big.Int).Set(l.Int)}
	case l.Type.Kind == ast.StringKind:
		return Str{S: l.Str}
	case l.Type.Kind == ast.BNum:
		return BNum{V: new(big.Int).Set(l.Int)}
	default:
		b := make([]byte, len(l.Bytes))
		copy(b, l.Bytes)
		return ByStr{Ty: l.Type, B: b}
	}
}

// ListValues converts a Scilla List ADT into a Go slice.
func ListValues(v Value) ([]Value, bool) {
	var out []Value
	for {
		a, ok := v.(ADT)
		if !ok || a.TypeName != "List" {
			return nil, false
		}
		if a.Constr == "Nil" {
			return out, true
		}
		if a.Constr != "Cons" || len(a.Args) != 2 {
			return nil, false
		}
		out = append(out, a.Args[0])
		v = a.Args[1]
	}
}
