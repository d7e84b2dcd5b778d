package value_test

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

func randomValue(r *rand.Rand, depth int) value.Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return value.Uint128(uint64(r.Intn(1000)))
		case 1:
			return value.Str{S: []string{"a", "b", "c"}[r.Intn(3)]}
		case 2:
			b := make([]byte, 20)
			r.Read(b)
			return value.ByStr{Ty: ast.TyByStr20, B: b}
		default:
			return value.Bool(r.Intn(2) == 0)
		}
	}
	switch r.Intn(3) {
	case 0:
		return value.Some(ast.TyUint128, randomValue(r, depth-1))
	case 1:
		m := value.NewMap(ast.TyString, ast.TyUint128)
		for i := 0; i < r.Intn(4); i++ {
			m.Set(value.Str{S: string(rune('a' + i))}, randomValue(r, 0))
		}
		return m
	default:
		return value.Cons(ast.TyUint128, randomValue(r, depth-1), value.NilList(ast.TyUint128))
	}
}

// Equal must be reflexive; Copy must produce an Equal value.
func TestEqualCopyLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 2)
		if !value.Equal(v, v) {
			return false
		}
		cp := value.Copy(v)
		return value.Equal(v, cp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Copy must be deep for maps: mutating the copy leaves the original.
func TestMapCopyIsDeep(t *testing.T) {
	m := value.NewMap(ast.TyString, ast.TyUint128)
	m.Set(value.Str{S: "k"}, value.Uint128(1))
	cp := value.Copy(m).(*value.Map)
	cp.Set(value.Str{S: "k"}, value.Uint128(2))
	v, _ := m.Get(value.Str{S: "k"})
	if v.(value.Int).V.Uint64() != 1 {
		t.Error("map copy is shallow")
	}
}

// CanonicalKey must distinguish differently-typed equal renderings and
// be injective on primitive values of one type.
func TestCanonicalKey(t *testing.T) {
	if value.CanonicalKey(value.Uint128(1)) == value.CanonicalKey(value.Uint32V(1)) {
		t.Error("canonical keys collide across integer widths")
	}
	if value.CanonicalKey(value.Str{S: "1"}) == value.CanonicalKey(value.Uint128(1)) {
		t.Error("canonical keys collide across types")
	}
	f := func(a, b uint32) bool {
		ka := value.CanonicalKey(value.Uint32V(a))
		kb := value.CanonicalKey(value.Uint32V(b))
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapOperations(t *testing.T) {
	m := value.NewMap(ast.TyByStr20, ast.TyUint128)
	k1 := value.ByStr{Ty: ast.TyByStr20, B: make([]byte, 20)}
	if _, ok := m.Get(k1); ok {
		t.Error("empty map contains a key")
	}
	m.Set(k1, value.Uint128(5))
	if v, ok := m.Get(k1); !ok || v.(value.Int).V.Uint64() != 5 {
		t.Error("set/get failed")
	}
	if m.Len() != 1 {
		t.Error("len wrong")
	}
	m.Delete(k1)
	if m.Len() != 0 {
		t.Error("delete failed")
	}
}

func TestSortedKeysDeterministic(t *testing.T) {
	m := value.NewMap(ast.TyString, ast.TyUint128)
	for _, s := range []string{"z", "a", "m"} {
		m.Set(value.Str{S: s}, value.Uint128(1))
	}
	keys := m.SortedKeys()
	if len(keys) != 3 || keys[0] > keys[1] || keys[1] > keys[2] {
		t.Errorf("SortedKeys not sorted: %v", keys)
	}
}

func TestListValues(t *testing.T) {
	l := value.Cons(ast.TyUint128, value.Uint128(1),
		value.Cons(ast.TyUint128, value.Uint128(2), value.NilList(ast.TyUint128)))
	items, ok := value.ListValues(l)
	if !ok || len(items) != 2 {
		t.Fatalf("ListValues = %v, %v", items, ok)
	}
	if items[0].(value.Int).V.Uint64() != 1 || items[1].(value.Int).V.Uint64() != 2 {
		t.Error("list order wrong")
	}
	if _, ok := value.ListValues(value.Uint128(1)); ok {
		t.Error("non-list accepted")
	}
}

func TestFromLiteral(t *testing.T) {
	l := ast.BigIntLit(ast.TyUint128, big.NewInt(42))
	v := value.FromLiteral(l)
	if v.(value.Int).V.Uint64() != 42 {
		t.Error("int literal conversion failed")
	}
	// The literal's big.Int must not be aliased.
	v.(value.Int).V.SetUint64(7)
	if l.Int.Uint64() != 42 {
		t.Error("FromLiteral aliased the literal's big.Int")
	}
	s := value.FromLiteral(ast.StrLit("hi"))
	if s.(value.Str).S != "hi" {
		t.Error("string literal conversion failed")
	}
}

func TestBoolHelpers(t *testing.T) {
	if !value.IsTrue(value.True()) || value.IsTrue(value.False()) {
		t.Error("IsTrue wrong")
	}
	if !value.IsTrue(value.Bool(true)) || value.IsTrue(value.Bool(false)) {
		t.Error("Bool wrong")
	}
}

func TestEnvScoping(t *testing.T) {
	outer := value.NewEnv(nil)
	outer.Bind("x", value.Uint128(1))
	inner := value.NewEnv(outer)
	inner.Bind("x", value.Uint128(2))
	if v, _ := inner.Lookup("x"); v.(value.Int).V.Uint64() != 2 {
		t.Error("inner binding not shadowing")
	}
	if v, _ := outer.Lookup("x"); v.(value.Int).V.Uint64() != 1 {
		t.Error("outer binding clobbered")
	}
	if _, ok := inner.Lookup("y"); ok {
		t.Error("unbound name resolved")
	}
}

func TestIntRangeHelpers(t *testing.T) {
	if !ast.InRange(ast.TyUint128, big.NewInt(0)) {
		t.Error("0 not in Uint128 range")
	}
	if ast.InRange(ast.TyUint128, big.NewInt(-1)) {
		t.Error("-1 in Uint128 range")
	}
	if !ast.InRange(ast.TyInt32, big.NewInt(-2147483648)) {
		t.Error("Int32 min not in range")
	}
	if ast.InRange(ast.TyInt32, big.NewInt(2147483648)) {
		t.Error("Int32 max+1 in range")
	}
}

// TestMapKeyRoundTrip: Map.Key rebuilds every primitive key kind from
// its canonical form, with the map's key type, and the rebuilt key
// renders to the same canonical form.
func TestMapKeyRoundTrip(t *testing.T) {
	var keys []value.Value
	for k := ast.Int32; k <= ast.Uint256; k++ {
		ty := ast.PrimType{Kind: k}
		w := uint(ty.IntWidth())
		min, max := new(big.Int), new(big.Int).Lsh(big.NewInt(1), w)
		if ty.IsSigned() {
			min.Neg(new(big.Int).Lsh(big.NewInt(1), w-1))
			max.Rsh(max, 1)
		}
		max.Sub(max, big.NewInt(1))
		for _, n := range []*big.Int{min, big.NewInt(-1), big.NewInt(0), max} {
			if ast.InRange(ty, n) {
				keys = append(keys, value.NewInt(ty, n))
			}
		}
	}
	for _, s := range []string{"", "a:b", "x\x1fy"} {
		keys = append(keys, value.Str{S: s})
	}
	keys = append(keys,
		value.ByStr{Ty: ast.PrimType{Kind: ast.ByStr}, B: []byte{}},
		value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0xab}, 20)},
		value.ByStr{Ty: ast.PrimType{Kind: ast.ByStr32}, B: bytes.Repeat([]byte{0x01}, 32)},
		value.BNum{V: big.NewInt(0)},
		value.BNum{V: new(big.Int).Lsh(big.NewInt(1), 200)},
	)
	for _, k := range keys {
		m := value.NewMap(k.Type(), ast.TyUint128)
		ck := value.CanonicalKey(k)
		got := m.Key(ck)
		if !value.Equal(got, k) || !got.Type().Equal(k.Type()) {
			t.Errorf("Key(%q) = %#v, want %#v", ck, got, k)
		}
		if again := value.CanonicalKey(got); again != ck {
			t.Errorf("CanonicalKey(Key(%q)) = %q", ck, again)
		}
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// entryKV returns the i-th ByStr32 key and ByStr20 value of the
// retention test and benchmark, each in bytes of its own.
func entryKV(i int) (k, v value.ByStr) {
	kb, vb := make([]byte, 32), make([]byte, 20)
	binary.BigEndian.PutUint64(kb[24:], uint64(i))
	binary.BigEndian.PutUint64(vb[12:], uint64(i))
	return value.ByStr{Ty: ast.PrimType{Kind: ast.ByStr32}, B: kb}, value.ByStr{Ty: ast.TyByStr20, B: vb}
}

// TestMapEntryRetention: a map entry keeps its canonical key, its value
// and one Go map slot alive, nothing for the key value.
func TestMapEntryRetention(t *testing.T) {
	const entries, ceiling = 100_000, 220
	before := liveHeap()
	m := value.NewMap(ast.PrimType{Kind: ast.ByStr32}, ast.TyByStr20)
	for i := 0; i < entries; i++ {
		k, v := entryKV(i)
		m.Set(k, v)
	}
	perEntry := float64(liveHeap()-before) / entries
	runtime.KeepAlive(m)
	t.Logf("%d entries: %.1f B per entry retained", m.Len(), perEntry)
	if perEntry > ceiling {
		t.Errorf("map retains %.1f B per entry, ceiling %d", perEntry, ceiling)
	}
}

// TestMapReadsAllocNothing: Get renders its key on the stack, and Copy
// hands back an ADT without arguments as it is.
func TestMapReadsAllocNothing(t *testing.T) {
	m := value.NewMap(ast.TyByStr20, ast.TyUint128)
	k := value.Value(value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x5a}, 20)})
	m.Set(k, value.Uint128(1))
	truth := value.Value(value.True())
	var found bool
	var copied value.Value
	for name, f := range map[string]func(){
		"Get":  func() { _, found = m.Get(k) },
		"Copy": func() { copied = value.Copy(truth) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
	if !found || !value.IsTrue(copied) {
		t.Fatalf("Get found %v, Copy(True) = %v", found, copied)
	}
}
