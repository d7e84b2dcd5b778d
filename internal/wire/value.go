package wire

import (
	"bytes"
	"fmt"
	"sort"

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
			if b, err = appendValue(b, vv.KeyVals[ck]); err != nil {
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
		if build {
			v = value.ADT{TypeName: string(name), Constr: string(constr), TypeArgs: targs, Args: args}
		}
	case tagMap:
		kt, vt := r.typ(depth+1, build), r.typ(depth+1, build)
		n := r.count(2)
		var m *value.Map
		if build && r.err == nil {
			m = value.NewMap(kt, vt)
			v = m
		}
		for ; n > 0 && r.err == nil; n-- {
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
