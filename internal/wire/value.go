package wire

import (
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

func (r *reader) typ(depth int) ast.Type {
	if r.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		r.fail("type nesting exceeds depth limit %d", maxValueDepth)
		return nil
	}
	switch tag := r.byte(); tag {
	case tagTyPrim:
		k := ast.PrimKind(r.byte())
		if k < ast.Int32 || k > ast.UnitKind {
			r.fail("unknown primitive type kind %d", k)
			return nil
		}
		return ast.PrimType{Kind: k}
	case tagTyMap:
		kt := r.typ(depth + 1)
		vt := r.typ(depth + 1)
		if r.err != nil {
			return nil
		}
		return ast.MapType{Key: kt, Val: vt}
	case tagTyADT:
		name := r.string()
		n := r.count(1)
		var args []ast.Type
		if n > 0 {
			args = make([]ast.Type, 0, n)
		}
		for i := 0; i < n; i++ {
			args = append(args, r.typ(depth+1))
		}
		if r.err != nil {
			return nil
		}
		return ast.ADTType{Name: name, Args: args}
	case tagTyVar:
		return ast.TypeVar{Name: r.string()}
	case tagTyFun:
		at := r.typ(depth + 1)
		rt := r.typ(depth + 1)
		if r.err != nil {
			return nil
		}
		return ast.FunType{Arg: at, Ret: rt}
	case tagTyPoly:
		v := r.string()
		body := r.typ(depth + 1)
		if r.err != nil {
			return nil
		}
		return ast.PolyType{Var: v, Body: body}
	default:
		if r.err == nil {
			r.fail("unknown type tag %d", tag)
		}
		return nil
	}
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

func (r *reader) value(depth int) value.Value {
	if r.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		r.fail("value nesting exceeds depth limit %d", maxValueDepth)
		return nil
	}
	switch tag := r.byte(); tag {
	case tagInt:
		k := ast.PrimKind(r.byte())
		v := r.big()
		if r.err != nil {
			return nil
		}
		ty := ast.PrimType{Kind: k}
		if !ty.IsInt() || v == nil || !ast.InRange(ty, v) {
			r.fail("integer value out of range for its type")
			return nil
		}
		return value.Int{Ty: ty, V: v}
	case tagStr:
		return value.Str{S: r.string()}
	case tagByStr:
		k := ast.PrimKind(r.byte())
		bs := r.bytes()
		if r.err != nil {
			return nil
		}
		switch k {
		case ast.ByStr20, ast.ByStr32, ast.ByStr:
		default:
			r.fail("bad ByStr type kind %d", k)
			return nil
		}
		return value.ByStr{Ty: ast.PrimType{Kind: k}, B: bs}
	case tagBNum:
		v := r.big()
		if r.err != nil {
			return nil
		}
		if v == nil || v.Sign() < 0 {
			r.fail("bad block number")
			return nil
		}
		return value.BNum{V: v}
	case tagADT:
		name := r.string()
		constr := r.string()
		nt := r.count(1)
		var targs []ast.Type
		if nt > 0 {
			targs = make([]ast.Type, 0, nt)
		}
		for i := 0; i < nt; i++ {
			targs = append(targs, r.typ(depth+1))
		}
		na := r.count(1)
		var args []value.Value
		if na > 0 {
			args = make([]value.Value, 0, na)
		}
		for i := 0; i < na; i++ {
			args = append(args, r.value(depth+1))
		}
		if r.err != nil {
			return nil
		}
		return value.ADT{TypeName: name, Constr: constr, TypeArgs: targs, Args: args}
	case tagMap:
		kt := r.typ(depth + 1)
		vt := r.typ(depth + 1)
		n := r.count(2)
		if r.err != nil {
			return nil
		}
		m := value.NewMap(kt, vt)
		for i := 0; i < n; i++ {
			k := r.value(depth + 1)
			v := r.value(depth + 1)
			if r.err != nil {
				return nil
			}
			m.Set(k, v)
		}
		return m
	case tagMsg:
		n := r.count(2)
		if r.err != nil {
			return nil
		}
		m := value.Msg{Entries: make(map[string]value.Value, n)}
		for i := 0; i < n; i++ {
			k := r.string()
			v := r.value(depth + 1)
			if r.err != nil {
				return nil
			}
			m.Entries[k] = v
		}
		return m
	case tagUnit:
		return value.Unit{}
	default:
		if r.err == nil {
			r.fail("unknown value tag %d", tag)
		}
		return nil
	}
}

// skipType consumes one encoded type, accepting exactly what typ
// accepts and building nothing.
func (r *reader) skipType(depth int) {
	if r.err != nil {
		return
	}
	if depth > maxValueDepth {
		r.fail("type nesting exceeds depth limit %d", maxValueDepth)
		return
	}
	switch tag := r.byte(); tag {
	case tagTyPrim:
		if k := ast.PrimKind(r.byte()); k < ast.Int32 || k > ast.UnitKind {
			r.fail("unknown primitive type kind %d", k)
		}
	case tagTyMap, tagTyFun:
		r.skipType(depth + 1)
		r.skipType(depth + 1)
	case tagTyADT:
		r.skip()
		for n := r.count(1); n > 0 && r.err == nil; n-- {
			r.skipType(depth + 1)
		}
	case tagTyVar:
		r.skip()
	case tagTyPoly:
		r.skip()
		r.skipType(depth + 1)
	default:
		if r.err == nil {
			r.fail("unknown type tag %d", tag)
		}
	}
}

// skipValue consumes one encoded value, accepting exactly what value
// accepts — structure, depth, counts, integer ranges — and building
// nothing. A receipt's events are checked this way when a block is
// decoded and built only when somebody asks (ReceiptEvents);
// FuzzReceiptEvents holds the two walks to the same accept set.
func (r *reader) skipValue(depth int) {
	if r.err != nil {
		return
	}
	if depth > maxValueDepth {
		r.fail("value nesting exceeds depth limit %d", maxValueDepth)
		return
	}
	switch tag := r.byte(); tag {
	case tagInt:
		ty := ast.PrimType{Kind: ast.PrimKind(r.byte())}
		v := r.skipBig()
		if r.err == nil && (!ty.IsInt() || v == nil || !ast.InRange(ty, v)) {
			r.fail("integer value out of range for its type")
		}
	case tagStr:
		r.skip()
	case tagByStr:
		k := ast.PrimKind(r.byte())
		r.skip()
		if r.err == nil && k != ast.ByStr20 && k != ast.ByStr32 && k != ast.ByStr {
			r.fail("bad ByStr type kind %d", k)
		}
	case tagBNum:
		if v := r.skipBig(); r.err == nil && (v == nil || v.Sign() < 0) {
			r.fail("bad block number")
		}
	case tagADT:
		r.skip()
		r.skip()
		for n := r.count(1); n > 0 && r.err == nil; n-- {
			r.skipType(depth + 1)
		}
		for n := r.count(1); n > 0 && r.err == nil; n-- {
			r.skipValue(depth + 1)
		}
	case tagMap:
		r.skipType(depth + 1)
		r.skipType(depth + 1)
		for n := r.count(2); n > 0 && r.err == nil; n-- {
			r.skipValue(depth + 1)
			r.skipValue(depth + 1)
		}
	case tagMsg:
		for n := r.count(2); n > 0 && r.err == nil; n-- {
			r.skip()
			r.skipValue(depth + 1)
		}
	case tagUnit:
	default:
		if r.err == nil {
			r.fail("unknown value tag %d", tag)
		}
	}
}
