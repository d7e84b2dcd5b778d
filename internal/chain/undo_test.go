package chain_test

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

var undoJoins = map[string]signature.Join{"total": signature.IntMerge}

// undoBase is newBase with something in every field, so deletes,
// overwrites and additions all have a previous value to put back.
func undoBase(t *testing.T) *eval.MemState {
	t.Helper()
	st := newBase()
	for i := 0; i < 4; i++ {
		if err := eval.SetAt(st, "balances", []value.Value{addr(i)}, value.Uint128(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "b"} {
		if err := eval.SetAt(st, "nested", []value.Value{addr(1), value.Str{S: k}}, value.Uint128(7)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// randomDelta writes through an overlay over base: flat sets and
// deletes, nested sets under present and absent outer keys, nested
// deletes that can empty an inner map, a whole-field overwrite and an
// integer addition.
func randomDelta(t *testing.T, r *rand.Rand, base *eval.MemState, shard int) *chain.StateDelta {
	t.Helper()
	ov := chain.NewOverlay(base, testFieldTypes)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		inner := value.Str{S: string(rune('a' + r.Intn(3)))}
		switch r.Intn(6) {
		case 0:
			must(eval.SetAt(ov, "balances", []value.Value{addr(r.Intn(8))}, value.Uint128(uint64(r.Intn(1000)))))
		case 1:
			must(eval.DeleteAt(ov, "balances", []value.Value{addr(r.Intn(8))}))
		case 2:
			must(eval.SetAt(ov, "nested", []value.Value{addr(r.Intn(4)), inner}, value.Uint128(uint64(r.Intn(1000)))))
		case 3:
			must(eval.DeleteAt(ov, "nested", []value.Value{addr(r.Intn(4)), inner}))
		case 4:
			must(ov.StoreField("note", value.Str{S: "rewritten"}))
		case 5:
			must(ov.StoreField("total", value.Uint128(uint64(1000+r.Intn(50)))))
		}
	}
	d, err := ov.ExtractDelta(chain.Address{}, shard, undoJoins)
	must(err)
	return d
}

// TestUndoRestoresMergedState: a merge in place followed by Rollback
// leaves the state Equal to what it was — including the map levels the
// merge created on the way to nested entries, which Equal would see as
// extra (empty) inner maps — and without Rollback it equals the merge
// into a copy.
func TestUndoRestoresMergedState(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := undoBase(t)
		pre := base.Copy()
		d := randomDelta(t, r, base, 0)

		var undo chain.Undo
		if err := chain.MergeDeltas(base, []*chain.StateDelta{d}, &undo); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := pre.Copy()
		if err := chain.MergeDeltas(want, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !base.Equal(want) {
			t.Fatalf("seed %d: merge in place differs from merge into a copy", seed)
		}
		undo.Rollback()
		if !base.Equal(pre) {
			t.Fatalf("seed %d: state after Rollback differs from the state before the merge\ndelta: %s", seed, d)
		}
	}
}

// TestUndoAfterFailedMerge: the merge stops part-way at a conflict or an
// overflow, after earlier entries — one of them creating a nested level
// under an absent outer key — were already written; Rollback restores
// everything.
func TestUndoAfterFailedMerge(t *testing.T) {
	nestedAdd := func(shard int) *chain.StateDelta {
		// An IntAdd at nested[addr(9)]["z"]: the outer key is absent, so
		// the merge has to create the inner map first.
		keys := []value.Value{addr(9), value.Str{S: "z"}}
		return &chain.StateDelta{Shard: shard, Fields: []chain.FieldDelta{{Name: "nested", Entries: []chain.EntryDelta{
			{Kind: chain.IntAdd, Keypath: chain.Keypath(keys), Keys: keys, Delta: big.NewInt(5)},
		}}}}
	}
	overwrite := func(base *eval.MemState, shard int, v uint64) *chain.StateDelta {
		ov := chain.NewOverlay(base, testFieldTypes)
		if err := eval.SetAt(ov, "balances", []value.Value{addr(1)}, value.Uint128(v)); err != nil {
			t.Fatal(err)
		}
		d, err := ov.ExtractDelta(chain.Address{}, shard, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	overflow := func(shard int) *chain.StateDelta {
		return &chain.StateDelta{Shard: shard, Fields: []chain.FieldDelta{
			{Name: "total", Whole: &chain.EntryDelta{Kind: chain.IntAdd, Delta: new(big.Int).Set(ast.MaxInt(ast.TyUint128))}},
		}}
	}
	t.Run("conflict", func(t *testing.T) {
		base := undoBase(t)
		pre := base.Copy()
		var undo chain.Undo
		err := chain.MergeDeltas(base, []*chain.StateDelta{nestedAdd(0), overwrite(base, 1, 1), overwrite(base, 2, 2)}, &undo)
		if _, ok := err.(*chain.ConflictError); !ok {
			t.Fatalf("expected ConflictError, got %v", err)
		}
		if base.Equal(pre) {
			t.Fatal("the merge wrote nothing before the conflict: the test does not exercise Rollback")
		}
		undo.Rollback()
		if !base.Equal(pre) {
			t.Fatal("state after Rollback differs from the state before the merge")
		}
	})
	t.Run("overflow", func(t *testing.T) {
		base := undoBase(t)
		pre := base.Copy()
		var undo chain.Undo
		err := chain.MergeDeltas(base, []*chain.StateDelta{nestedAdd(0), overflow(1)}, &undo)
		if _, ok := err.(*chain.OverflowError); !ok {
			t.Fatalf("expected OverflowError, got %v", err)
		}
		undo.Rollback()
		if !base.Equal(pre) {
			t.Fatal("state after Rollback differs from the state before the merge")
		}
		if _, found, _ := eval.GetAt(base, "nested", []value.Value{addr(9)}); found {
			t.Fatal("Rollback left the inner map the merge created under nested[addr(9)]")
		}
	})
}

// TestMergeNeverMutatesReplacedValues: integer joins install a fresh
// value; the big.Int the state held before — which receipts, state
// responses and the undo log may still reference — keeps its value.
func TestMergeNeverMutatesReplacedValues(t *testing.T) {
	base := undoBase(t)
	before, _, err := eval.GetAt(base, "balances", []value.Value{addr(2)})
	if err != nil {
		t.Fatal(err)
	}
	old := before.(value.Int).V
	d := &chain.StateDelta{Fields: []chain.FieldDelta{
		{Name: "balances", Entries: []chain.EntryDelta{
			{Kind: chain.IntAdd, Keypath: chain.Keypath([]value.Value{addr(2)}), Keys: []value.Value{addr(2)}, Delta: big.NewInt(40)},
		}},
		{Name: "total", Whole: &chain.EntryDelta{Kind: chain.IntAdd, Delta: big.NewInt(1)}},
	}}
	if err := chain.MergeDeltas(base, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
		t.Fatal(err)
	}
	after, _, _ := eval.GetAt(base, "balances", []value.Value{addr(2)})
	if got := after.(value.Int).V.Uint64(); got != 142 {
		t.Fatalf("balances[2] = %d, want 142", got)
	}
	if old.Uint64() != 102 {
		t.Fatalf("the replaced big.Int was mutated in place: now %s, was 102", old)
	}
}

// TestApplyAccountsAllOrNothing: a delta that would overdraw one
// account, or credit one to 2^128, changes no account, whichever order
// the map is walked in.
func TestApplyAccountsAllOrNothing(t *testing.T) {
	as := chain.NewAccounts()
	for i := 0; i < 50; i++ {
		as.Create(chain.AddrFromUint(uint64(i)), 100, false)
	}
	d := chain.NewAccountDelta()
	for i := 0; i < 50; i++ {
		d.AddBalance(chain.AddrFromUint(uint64(i)), big.NewInt(-60))
		d.BumpNonce(chain.AddrFromUint(uint64(i)), 3)
	}
	d.AddBalance(chain.AddrFromUint(17), big.NewInt(-60)) // 100 - 120 < 0
	d.AddBalance(chain.AddrFromUint(99), big.NewInt(10))  // created by Apply
	if err := as.Apply(d, nil); err == nil {
		t.Fatal("overdrawing delta applied")
	}
	unchanged := func() {
		t.Helper()
		for i := 0; i < 50; i++ {
			acc, _ := as.Get(chain.AddrFromUint(uint64(i)))
			if acc.Balance != chain.BalanceOf(100) || acc.Nonce != 0 {
				t.Fatalf("account %d changed by a failed Apply: balance %s nonce %d", i, acc.Balance, acc.Nonce)
			}
		}
		if _, ok := as.Get(chain.AddrFromUint(99)); ok {
			t.Fatal("failed Apply created an account")
		}
	}
	unchanged()
	// A credit that would take one balance to 2^128 fails the same way.
	d.AddBalance(chain.AddrFromUint(17), big.NewInt(60))
	d.AddBalance(chain.AddrFromUint(23), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(40)))
	if err := as.Apply(d, nil); !errors.Is(err, chain.ErrBalanceOverflow) {
		t.Fatalf("Apply of a credit to 2^128 = %v, want ErrBalanceOverflow", err)
	}
	unchanged()
	// A debit against an account that does not exist fails the same way.
	d2 := chain.NewAccountDelta()
	d2.AddBalance(chain.AddrFromUint(1), big.NewInt(-10))
	d2.AddBalance(chain.AddrFromUint(200), big.NewInt(-1))
	if err := as.Apply(d2, nil); err == nil {
		t.Fatal("debit of an absent account applied")
	}
	acc, _ := as.Get(chain.AddrFromUint(1))
	if _, ok := as.Get(chain.AddrFromUint(200)); acc.Balance != chain.BalanceOf(100) || ok {
		t.Fatal("failed Apply touched the table")
	}
}

// TestUndoRestoresAccounts: rows Apply changed through an undo log go
// back on Rollback, newest first, and accounts it created are removed,
// even after a second Apply into the same log changed them again.
func TestUndoRestoresAccounts(t *testing.T) {
	as := chain.NewAccounts()
	for i := 0; i < 10; i++ {
		as.Create(chain.AddrFromUint(uint64(i)), 100, false)
	}
	pre := as.Copy()
	var undo chain.Undo
	for round := 0; round < 2; round++ {
		d := chain.NewAccountDelta()
		for i := 0; i < 10; i += 2 {
			d.AddBalance(chain.AddrFromUint(uint64(i)), big.NewInt(-10))
			d.BumpNonce(chain.AddrFromUint(uint64(i+1)), uint64(5+round))
		}
		d.AddBalance(chain.AddrFromUint(uint64(50+round)), big.NewInt(7))
		d.BumpNonce(chain.AddrFromUint(50), 9)
		if err := as.Apply(d, &undo); err != nil {
			t.Fatal(err)
		}
	}
	if as.Len() != 12 {
		t.Fatalf("%d accounts after two applies, want 12", as.Len())
	}
	undo.Rollback()
	if as.Len() != pre.Len() {
		t.Fatalf("%d accounts after rollback, want %d", as.Len(), pre.Len())
	}
	pre.Range(func(a chain.Address, want chain.Account) bool {
		if got, ok := as.Get(a); !ok || got != want {
			t.Errorf("account %s after rollback: %+v, want %+v", a, got, want)
		}
		return true
	})
	// The table still takes new accounts after the rows were truncated.
	as.Create(chain.AddrFromUint(60), 1, false)
	if acc, ok := as.Get(chain.AddrFromUint(60)); !ok || acc.Balance != chain.BalanceOf(1) {
		t.Fatalf("account created after rollback: %+v, %v", acc, ok)
	}
	if _, ok := as.Get(chain.AddrFromUint(50)); ok {
		t.Fatal("rolled-back account reappeared")
	}
}
