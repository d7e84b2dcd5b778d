package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

// Scilla runtime values and types are encoded with one-byte tags.
// Compound values recurse; maps and messages are written in sorted
// canonical-key order so the encoding is deterministic. Closures and
// type closures never cross the wire (they capture interpreter
// environments) and fail with ErrUnencodable.

// value tags.
const (
	tagInt   = 1
	tagStr   = 2
	tagByStr = 3
	tagBNum  = 4
	tagADT   = 5
	tagMap   = 6
	tagMsg   = 7
	tagUnit  = 8
)

// type tags.
const (
	tagTyPrim = 1
	tagTyMap  = 2
	tagTyADT  = 3
	tagTyVar  = 4
	tagTyFun  = 5
	tagTyPoly = 6
)

// maxValueDepth bounds recursion while decoding nested values/types so
// a hostile payload cannot overflow the stack.
const maxValueDepth = 64

func appendType(b []byte, t ast.Type) ([]byte, error) {
	var err error
	switch tt := t.(type) {
	case ast.PrimType:
		b = append(b, tagTyPrim, byte(tt.Kind))
	case ast.MapType:
		b = append(b, tagTyMap)
		if b, err = appendType(b, tt.Key); err != nil {
			return nil, err
		}
		if b, err = appendType(b, tt.Val); err != nil {
			return nil, err
		}
	case ast.ADTType:
		b = append(b, tagTyADT)
		b = appendString(b, tt.Name)
		b = appendUvarint(b, uint64(len(tt.Args)))
		for _, a := range tt.Args {
			if b, err = appendType(b, a); err != nil {
				return nil, err
			}
		}
	case ast.TypeVar:
		b = append(b, tagTyVar)
		b = appendString(b, tt.Name)
	case ast.FunType:
		b = append(b, tagTyFun)
		if b, err = appendType(b, tt.Arg); err != nil {
			return nil, err
		}
		if b, err = appendType(b, tt.Ret); err != nil {
			return nil, err
		}
	case ast.PolyType:
		b = append(b, tagTyPoly)
		b = appendString(b, tt.Var)
		if b, err = appendType(b, tt.Body); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: type %T", ErrUnencodable, t)
	}
	return b, nil
}

// typ reads one encoded type, building it only when build.
func (r *reader) typ(depth int, build bool) ast.Type {
	if r.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		r.fail("type nesting exceeds depth limit %d", maxValueDepth)
		return nil
	}
	var t ast.Type
	switch tag := r.byte(); tag {
	case tagTyPrim:
		k := ast.PrimKind(r.byte())
		if k < ast.Int32 || k > ast.UnitKind {
			r.fail("unknown primitive type kind %d", k)
		}
		if build {
			t = ast.PrimType{Kind: k}
		}
	case tagTyMap, tagTyFun:
		x, y := r.typ(depth+1, build), r.typ(depth+1, build)
		if build && tag == tagTyMap {
			t = ast.MapType{Key: x, Val: y}
		} else if build {
			t = ast.FunType{Arg: x, Ret: y}
		}
	case tagTyADT:
		name := r.skip()
		n, args := items[ast.Type](r, 1, build)
		for ; n > 0 && r.err == nil; n-- {
			if a := r.typ(depth+1, build); build {
				args = append(args, a)
			}
		}
		if build {
			t = ast.ADTType{Name: string(name), Args: args}
		}
	case tagTyVar:
		if name := r.skip(); build {
			t = ast.TypeVar{Name: string(name)}
		}
	case tagTyPoly:
		v, body := r.skip(), r.typ(depth+1, build)
		if build {
			t = ast.PolyType{Var: string(v), Body: body}
		}
	default:
		r.fail("unknown type tag %d", tag)
	}
	if r.err != nil {
		return nil
	}
	return t
}

func appendValue(b []byte, v value.Value) ([]byte, error) {
	var err error
	switch vv := v.(type) {
	case value.Int:
		b = append(b, tagInt, byte(vv.Ty.Kind))
		b = appendBig(b, vv.V)
	case value.Str:
		b = append(b, tagStr)
		b = appendString(b, vv.S)
	case value.ByStr:
		b = append(b, tagByStr, byte(vv.Ty.Kind))
		b = appendBytes(b, vv.B)
	case value.BNum:
		b = append(b, tagBNum)
		b = appendBig(b, vv.V)
	case value.ADT:
		b = append(b, tagADT)
		b = appendString(b, vv.TypeName)
		b = appendString(b, vv.Constr)
		b = appendUvarint(b, uint64(len(vv.TypeArgs)))
		for _, t := range vv.TypeArgs {
			if b, err = appendType(b, t); err != nil {
				return nil, err
			}
		}
		b = appendUvarint(b, uint64(len(vv.Args)))
		for _, a := range vv.Args {
			if b, err = appendValue(b, a); err != nil {
				return nil, err
			}
		}
	case *value.Map:
		b = append(b, tagMap)
		if b, err = appendType(b, vv.KeyType); err != nil {
			return nil, err
		}
		if b, err = appendType(b, vv.ValType); err != nil {
			return nil, err
		}
		keys := vv.SortedKeys()
		b = appendUvarint(b, uint64(len(keys)))
		for _, ck := range keys {
			if b, err = appendKey(b, vv, ck); err != nil {
				return nil, err
			}
			if b, err = appendValue(b, vv.Entries[ck]); err != nil {
				return nil, err
			}
		}
	case value.Msg:
		b = append(b, tagMsg)
		keys := make([]string, 0, len(vv.Entries))
		for k := range vv.Entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = appendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			if b, err = appendValue(b, vv.Entries[k]); err != nil {
				return nil, err
			}
		}
	case value.Unit:
		b = append(b, tagUnit)
	default:
		return nil, fmt.Errorf("%w: value %T", ErrUnencodable, v)
	}
	return b, nil
}

// appendKey writes the key of m whose canonical form is ck as
// appendValue writes m.Key(ck). A String or byte-string key is read
// straight out of ck, so a full snapshot of a large address-keyed map
// allocates nothing per key; an integer or block number is rebuilt.
func appendKey(b []byte, m *value.Map, ck string) ([]byte, error) {
	t, ok := m.KeyType.(ast.PrimType)
	if !ok || !t.IsMapKey() {
		return nil, fmt.Errorf("%w: map key type %s", ErrUnencodable, m.KeyType)
	}
	switch t.Kind {
	case ast.StringKind:
		if s, ok := value.StrOfKey(ck); ok {
			return appendString(append(b, tagStr), s), nil
		}
	case ast.ByStr20, ast.ByStr32, ast.ByStr:
		if hx, ok := strings.CutPrefix(ck, "b:0x"); ok {
			b = appendUvarint(append(b, tagByStr, byte(t.Kind)), uint64(len(hx)/2))
			return hex.AppendDecode(b, []byte(hx))
		}
	}
	return appendValue(b, m.Key(ck))
}

// The Bool values a decode returns: one box each, shared by every
// decoded True and False. An ADT without arguments is immutable.
var decodedTrue, decodedFalse value.Value = value.True(), value.False()

// value reads one encoded value, building it only when build. A
// receipt's events are read with build false when a block is decoded
// and built only when somebody asks (ReceiptEvents).
func (r *reader) value(depth int, build bool) value.Value {
	if r.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		r.fail("value nesting exceeds depth limit %d", maxValueDepth)
		return nil
	}
	var v value.Value
	switch tag := r.byte(); tag {
	case tagInt:
		ty := ast.PrimType{Kind: ast.PrimKind(r.byte())}
		n, kept := r.big(build)
		if r.err == nil && (!ty.IsInt() || n == nil || !ast.InRange(ty, n)) {
			r.fail("integer value out of range for its type")
		}
		if build {
			v = value.Int{Ty: ty, V: kept}
		}
	case tagStr:
		if s := r.skip(); build {
			v = value.Str{S: string(s)}
		}
	case tagByStr:
		k := ast.PrimKind(r.byte())
		bs := r.skip()
		if k != ast.ByStr20 && k != ast.ByStr32 && k != ast.ByStr {
			r.fail("bad ByStr type kind %d", k)
		}
		if build {
			v = value.ByStr{Ty: ast.PrimType{Kind: k}, B: bytes.Clone(bs)}
		}
	case tagBNum:
		n, kept := r.big(build)
		if r.err == nil && (n == nil || n.Sign() < 0) {
			r.fail("bad block number")
		}
		if build {
			v = value.BNum{V: kept}
		}
	case tagADT:
		name, constr := r.skip(), r.skip()
		n, targs := items[ast.Type](r, 1, build)
		for ; n > 0 && r.err == nil; n-- {
			if t := r.typ(depth+1, build); build {
				targs = append(targs, t)
			}
		}
		n, args := items[value.Value](r, 1, build)
		for ; n > 0 && r.err == nil; n-- {
			if a := r.value(depth+1, build); build {
				args = append(args, a)
			}
		}
		switch {
		case !build:
		case string(name) == "Bool" && len(targs) == 0 && len(args) == 0 && string(constr) == "True":
			v = decodedTrue
		case string(name) == "Bool" && len(targs) == 0 && len(args) == 0 && string(constr) == "False":
			v = decodedFalse
		default:
			v = value.ADT{TypeName: string(name), Constr: string(constr), TypeArgs: targs, Args: args}
		}
	case tagMap:
		// The key type is built even when the map is not: every key
		// must be a value of exactly that type, for Map.Key to rebuild
		// from its canonical form.
		kt, vt := r.typ(depth+1, true), r.typ(depth+1, build)
		pt, ok := kt.(ast.PrimType)
		if r.err == nil && (!ok || !pt.IsMapKey()) {
			r.fail("map key type %s is not an integer, String, ByStr or BNum", kt)
		}
		n := r.count(2)
		var m *value.Map
		if build && r.err == nil {
			m = value.NewMap(kt, vt)
			v = m
		}
		for ; n > 0 && r.err == nil; n-- {
			if !r.valueOf(pt) {
				r.fail("map key is not a %s", pt)
			}
			k, e := r.value(depth+1, build), r.value(depth+1, build)
			if build && r.err == nil {
				m.Set(k, e)
			}
		}
	case tagMsg:
		n := r.count(2)
		var m value.Msg
		if build && r.err == nil {
			m.Entries = make(map[string]value.Value, n)
			v = m
		}
		for ; n > 0 && r.err == nil; n-- {
			k, e := r.skip(), r.value(depth+1, build)
			if build && r.err == nil {
				m.Entries[string(k)] = e
			}
		}
	case tagUnit:
		v = value.Unit{}
	default:
		r.fail("unknown value tag %d", tag)
	}
	if r.err != nil {
		return nil
	}
	return v
}

// valueOf reports whether the next encoded value is tagged as a value of
// the primitive type t: for an integer or a byte string, with t's kind.
// The value itself is left to read.
func (r *reader) valueOf(t ast.PrimType) bool {
	if len(r.b) < 2 {
		return false
	}
	switch tag := r.b[0]; {
	case t.IsInt():
		return tag == tagInt && ast.PrimKind(r.b[1]) == t.Kind
	case t.Kind == ast.StringKind:
		return tag == tagStr
	case t.Kind == ast.BNum:
		return tag == tagBNum
	default:
		return tag == tagByStr && ast.PrimKind(r.b[1]) == t.Kind
	}
}
