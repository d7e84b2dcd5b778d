package chain_test

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"cosplit/internal/chain"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

var testFieldTypes = map[string]ast.Type{
	"balances": ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128},
	"nested":   ast.MapType{Key: ast.TyByStr20, Val: ast.MapType{Key: ast.TyString, Val: ast.TyUint128}},
	"total":    ast.TyUint128,
	"note":     ast.TyString,
}

func newBase() *eval.MemState {
	st := eval.NewMemState(testFieldTypes)
	st.Fields["balances"] = value.NewMap(ast.TyByStr20, ast.TyUint128)
	st.Fields["nested"] = value.NewMap(ast.TyByStr20, ast.MapType{Key: ast.TyString, Val: ast.TyUint128})
	st.Fields["total"] = value.Uint128(1000)
	st.Fields["note"] = value.Str{S: "init"}
	return st
}

func addr(i int) value.Value { return chain.AddrFromUint(uint64(i)).Value() }

// --- Overlay semantics: an overlay must behave exactly like a plain
// mutable state for any operation sequence. ---

type op struct {
	kind int // 0 set, 1 delete, 2 store-scalar, 3 nested set, 4 nested delete, 5 store a map field whole
	key  int
	val  uint64
}

func randomOps(r *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: r.Intn(6), key: r.Intn(6), val: uint64(r.Intn(1000))}
	}
	return ops
}

func applyOps(t *testing.T, st eval.StateAccess, ops []op) {
	t.Helper()
	var err error
	for _, o := range ops {
		inner := value.Str{S: string(rune('a' + o.val%3))}
		switch o.kind {
		case 0:
			err = eval.SetAt(st, "balances", []value.Value{addr(o.key)}, value.Uint128(o.val))
		case 1:
			err = eval.DeleteAt(st, "balances", []value.Value{addr(o.key)})
		case 2:
			err = st.StoreField("total", value.Uint128(o.val))
		case 3:
			err = eval.SetAt(st, "nested", []value.Value{addr(o.key), inner}, value.Uint128(o.val))
		case 4:
			err = eval.DeleteAt(st, "nested", []value.Value{addr(o.key), inner})
		case 5:
			// A wholesale store: later entry ops on the field work on
			// the stored copy, not on per-entry writes.
			m := value.NewMap(ast.TyByStr20, ast.TyUint128)
			m.Set(addr(o.key), value.Uint128(o.val))
			err = st.StoreField("balances", m)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// applyOpsStacked applies ops the way a shard run does: in
// "transactions" of a few ops each, every one on a rollback overlay
// stacked on shardOv that is then committed into it or dropped. It
// returns the ops of the committed transactions, after checking that
// the rollback overlay read through the stack like a plain state
// before its fate was decided.
func applyOpsStacked(t *testing.T, r *rand.Rand, shardOv *chain.Overlay, ops []op) []op {
	t.Helper()
	var committed []op
	txOv := chain.NewOverlay(shardOv, testFieldTypes)
	for len(ops) > 0 {
		n := min(1+r.Intn(4), len(ops))
		tx := ops[:n]
		ops = ops[n:]
		txOv.Reset(shardOv, testFieldTypes)
		applyOps(t, txOv, tx)
		direct := newBase()
		applyOps(t, direct, committed)
		applyOps(t, direct, tx)
		if !statesAgree(t, txOv, direct) {
			t.Fatalf("rollback overlay over %d committed ops disagrees with direct state after %v", len(committed), tx)
		}
		if r.Intn(3) > 0 {
			txOv.CommitTo(shardOv)
			committed = append(committed, tx...)
		}
	}
	return committed
}

func statesAgree(t *testing.T, a, b eval.StateAccess) bool {
	t.Helper()
	for i := 0; i < 6; i++ {
		va, oka, err := eval.GetAt(a, "balances", []value.Value{addr(i)})
		if err != nil {
			t.Fatal(err)
		}
		vb, okb, err := eval.GetAt(b, "balances", []value.Value{addr(i)})
		if err != nil {
			t.Fatal(err)
		}
		if oka != okb || (oka && !value.Equal(va, vb)) {
			return false
		}
	}
	for f := range testFieldTypes {
		fa, err := a.LoadField(f)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.LoadField(f)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(withoutEmptyMaps(fa), withoutEmptyMaps(fb)) {
			return false
		}
	}
	return true
}

// withoutEmptyMaps drops the empty inner maps of a nested map. A plain
// state that sets nested[k][a] and then deletes it keeps nested[k] as
// an empty map; an overlay, whose write set is keyed by full keypath,
// records one deleted entry and never creates nested[k]. Every
// execution goes through overlays, so the difference is deterministic;
// the comparison looks past it.
func withoutEmptyMaps(v value.Value) value.Value {
	m, ok := v.(*value.Map)
	if !ok {
		return v
	}
	out := value.NewMap(m.KeyType, m.ValType)
	for ck, e := range m.Entries {
		if inner, ok := e.(*value.Map); !ok || inner.Len() > 0 {
			out.SetCK(ck, e)
		}
	}
	return out
}

func TestOverlayMatchesDirectState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := randomOps(r, 20)
		direct := newBase()
		ov := chain.NewOverlay(newBase(), testFieldTypes)
		applyOps(t, ov, ops)
		applyOps(t, direct, ops)
		if !statesAgree(t, ov, direct) {
			return false
		}
		// The shape shardRun executes on: overlay stacked on overlay.
		shardOv := chain.NewOverlay(newBase(), testFieldTypes)
		direct = newBase()
		applyOps(t, direct, applyOpsStacked(t, r, shardOv, ops))
		return statesAgree(t, shardOv, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestOverlayRoundTrip: extracting the delta and merging it into a copy
// of the base must reproduce direct application (for OwnOverwrite).
func TestOverlayRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := randomOps(r, 20)
		base := newBase()
		ov := chain.NewOverlay(base, testFieldTypes)
		applyOps(t, ov, ops)
		d, err := ov.ExtractDelta(chain.Address{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged := base.Copy()
		if err := chain.MergeDeltas(merged, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
			t.Fatal(err)
		}
		direct := newBase()
		applyOps(t, direct, ops)
		return statesAgree(t, merged, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIntMergeCommutes: IntMerge deltas from different "shards" merge
// to the same result in any order (the ⊎ PCM laws of Sec. 2.3).
func TestIntMergeCommutes(t *testing.T) {
	joins := map[string]signature.Join{"balances": signature.IntMerge, "total": signature.IntMerge}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := newBase()
		for i := 0; i < 4; i++ {
			if err := eval.SetAt(base, "balances", []value.Value{addr(i)}, value.Uint128(10_000)); err != nil {
				t.Fatal(err)
			}
		}
		mkDelta := func() *chain.StateDelta {
			ov := chain.NewOverlay(base, testFieldTypes)
			for i := 0; i < 5; i++ {
				k := r.Intn(4)
				cur, ok, err := eval.GetAt(ov, "balances", []value.Value{addr(k)})
				if err != nil {
					t.Fatal(err)
				}
				v := uint64(0)
				if ok {
					v = cur.(value.Int).V.Uint64()
				}
				if err := eval.SetAt(ov, "balances", []value.Value{addr(k)}, value.Uint128(v+uint64(r.Intn(100)))); err != nil {
					t.Fatal(err)
				}
			}
			d, err := ov.ExtractDelta(chain.Address{}, 0, joins)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		d1, d2, d3 := mkDelta(), mkDelta(), mkDelta()

		apply := func(order []*chain.StateDelta) *eval.MemState {
			m := base.Copy()
			if err := chain.MergeDeltas(m, order, new(chain.Undo)); err != nil {
				t.Fatal(err)
			}
			return m
		}
		a := apply([]*chain.StateDelta{d1, d2, d3})
		b := apply([]*chain.StateDelta{d3, d1, d2})
		c := apply([]*chain.StateDelta{d2, d3, d1})
		return statesAgree(t, a, b) && statesAgree(t, b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMergeConflictDetected: two shards overwriting the same owned
// component is a dispatch-invariant violation the merge must detect.
func TestMergeConflictDetected(t *testing.T) {
	base := newBase()
	mk := func(v uint64) *chain.StateDelta {
		ov := chain.NewOverlay(base, testFieldTypes)
		if err := eval.SetAt(ov, "balances", []value.Value{addr(1)}, value.Uint128(v)); err != nil {
			t.Fatal(err)
		}
		d, err := ov.ExtractDelta(chain.Address{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	err := chain.MergeDeltas(base.Copy(), []*chain.StateDelta{mk(1), mk(2)}, new(chain.Undo))
	if _, ok := err.(*chain.ConflictError); !ok {
		t.Errorf("expected ConflictError, got %v", err)
	}
}

// TestMergeOverflowDetected reproduces the Sec. 6 integer-overflow
// scenario: deltas that individually fit but jointly overflow.
func TestMergeOverflowDetected(t *testing.T) {
	base := newBase()
	near := new(big.Int).Sub(ast.MaxInt(ast.TyUint128), big.NewInt(5))
	if err := eval.SetAt(base, "balances", []value.Value{addr(1)}, value.Int{Ty: ast.TyUint128, V: near}); err != nil {
		t.Fatal(err)
	}
	joins := map[string]signature.Join{"balances": signature.IntMerge}
	mk := func(delta uint64) *chain.StateDelta {
		ov := chain.NewOverlay(base, testFieldTypes)
		cur, _, err := eval.GetAt(ov, "balances", []value.Value{addr(1)})
		if err != nil {
			t.Fatal(err)
		}
		nv := new(big.Int).Add(cur.(value.Int).V, new(big.Int).SetUint64(delta))
		// Construct the delta directly (simulating a shard whose local
		// execution stayed in range).
		_ = nv
		ovd := chain.NewOverlay(base, testFieldTypes)
		if err := eval.SetAt(ovd, "balances", []value.Value{addr(1)},
			value.Int{Ty: ast.TyUint128, V: new(big.Int).Add(cur.(value.Int).V, new(big.Int).SetUint64(delta))}); err != nil {
			t.Fatal(err)
		}
		d, err := ovd.ExtractDelta(chain.Address{}, 0, joins)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	err := chain.MergeDeltas(base.Copy(), []*chain.StateDelta{mk(3), mk(4)}, new(chain.Undo))
	if _, ok := err.(*chain.OverflowError); !ok {
		t.Errorf("expected OverflowError, got %v", err)
	}
}

// TestNestedMapDeltas covers two-level map writes.
func TestNestedMapDeltas(t *testing.T) {
	base := newBase()
	ov := chain.NewOverlay(base, testFieldTypes)
	keys := []value.Value{addr(1), value.Str{S: "k"}}
	if err := eval.SetAt(ov, "nested", keys, value.Uint128(42)); err != nil {
		t.Fatal(err)
	}
	d, err := ov.ExtractDelta(chain.Address{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged := base.Copy()
	if err := chain.MergeDeltas(merged, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
		t.Fatal(err)
	}
	v, ok, err := eval.GetAt(merged, "nested", keys)
	if err != nil || !ok {
		t.Fatalf("nested entry missing after merge: %v %v", ok, err)
	}
	if v.(value.Int).V.Uint64() != 42 {
		t.Errorf("nested value = %s, want 42", v)
	}
}

// TestOverlayStacking: a per-transaction overlay over a per-shard
// overlay commits and rolls back correctly.
func TestOverlayStacking(t *testing.T) {
	base := newBase()
	shardOv := chain.NewOverlay(base, testFieldTypes)
	if err := eval.SetAt(shardOv, "balances", []value.Value{addr(1)}, value.Uint128(100)); err != nil {
		t.Fatal(err)
	}

	// Rolled-back transaction: writes dropped.
	txOv := chain.NewOverlay(shardOv, testFieldTypes)
	if err := eval.SetAt(txOv, "balances", []value.Value{addr(1)}, value.Uint128(1)); err != nil {
		t.Fatal(err)
	}
	v, _, _ := eval.GetAt(shardOv, "balances", []value.Value{addr(1)})
	if v.(value.Int).V.Uint64() != 100 {
		t.Error("dropped tx overlay leaked into shard overlay")
	}

	// Committed transaction: writes visible.
	txOv2 := chain.NewOverlay(shardOv, testFieldTypes)
	if err := eval.SetAt(txOv2, "balances", []value.Value{addr(2)}, value.Uint128(7)); err != nil {
		t.Fatal(err)
	}
	txOv2.CommitTo(shardOv)
	v2, ok, _ := eval.GetAt(shardOv, "balances", []value.Value{addr(2)})
	if !ok || v2.(value.Int).V.Uint64() != 7 {
		t.Error("committed tx overlay not visible in shard overlay")
	}
	// The base is never touched.
	if _, ok, _ := eval.GetAt(base, "balances", []value.Value{addr(1)}); ok {
		t.Error("overlay leaked into base state")
	}
}

// --- Accounts ---

func TestAccountDeltaCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a1, a2 := chain.AddrFromUint(1), chain.AddrFromUint(2)
		mkDelta := func() *chain.AccountDelta {
			d := chain.NewAccountDelta()
			d.AddBalance(a1, big.NewInt(int64(r.Intn(100))))
			d.AddBalance(a2, big.NewInt(int64(r.Intn(100))-20))
			d.BumpNonce(a1, uint64(r.Intn(10)))
			return d
		}
		d1, d2 := mkDelta(), mkDelta()
		run := func(order ...*chain.AccountDelta) *chain.Accounts {
			as := chain.NewAccounts()
			as.Create(a1, 1000, false)
			as.Create(a2, 1000, false)
			for _, d := range order {
				if err := as.Apply(d, nil); err != nil {
					t.Fatal(err)
				}
			}
			return as
		}
		x, y := run(d1, d2), run(d2, d1)
		x1, _ := x.Get(a1)
		x2, _ := x.Get(a2)
		y1, _ := y.Get(a1)
		y2, _ := y.Get(a2)
		return x1 == y1 && x2 == y2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccountNegativeBalanceRejected(t *testing.T) {
	as := chain.NewAccounts()
	as.Create(chain.AddrFromUint(1), 10, false)
	d := chain.NewAccountDelta()
	d.AddBalance(chain.AddrFromUint(1), big.NewInt(-11))
	if err := as.Apply(d, nil); err == nil {
		t.Error("expected negative-balance error")
	}
}

// --- Addresses ---

func TestShardOfStableAndInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		a := chain.AddrFromUint(uint64(i))
		s := chain.ShardOf(a, 7)
		if s < 0 || s >= 7 {
			t.Fatalf("ShardOf out of range: %d", s)
		}
		if s != chain.ShardOf(a, 7) {
			t.Fatal("ShardOf not deterministic")
		}
	}
}

func TestShardOfRoughlyUniform(t *testing.T) {
	const n = 4
	counts := make([]int, n)
	for i := 0; i < 4000; i++ {
		counts[chain.ShardOf(chain.AddrFromUint(uint64(i)), n)]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("shard %d has %d of 4000 addresses; distribution too skewed", s, c)
		}
	}
}

func TestContractAddressDistinct(t *testing.T) {
	a := chain.ContractAddress(chain.AddrFromUint(1), 1)
	b := chain.ContractAddress(chain.AddrFromUint(1), 2)
	c := chain.ContractAddress(chain.AddrFromUint(2), 1)
	if a == b || a == c || b == c {
		t.Error("contract addresses collide")
	}
}

func TestAddressValueRoundTrip(t *testing.T) {
	a := chain.AddrFromUint(42)
	v := a.Value()
	back, ok := chain.AddressFromValue(v)
	if !ok || back != a {
		t.Errorf("address round-trip failed: %v %v", back, ok)
	}
	if _, ok := chain.AddressFromValue(value.Str{S: "no"}); ok {
		t.Error("non-address value accepted")
	}
}
