package chain_test

import (
	"math/big"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// TestOverlayLoadFieldMaterialises: loading a whole map field with
// pending entry writes yields the merged view without mutating the
// base.
func TestOverlayLoadFieldMaterialises(t *testing.T) {
	base := newBase()
	if err := eval.SetAt(base, "balances", []value.Value{addr(1)}, value.Uint128(10)); err != nil {
		t.Fatal(err)
	}
	ov := chain.NewOverlay(base, testFieldTypes)
	if err := eval.SetAt(ov, "balances", []value.Value{addr(2)}, value.Uint128(20)); err != nil {
		t.Fatal(err)
	}
	if err := deleteAt(ov, "balances", []value.Value{addr(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := ov.LoadField("balances")
	if err != nil {
		t.Fatal(err)
	}
	m := v.(*value.Map)
	if m.Len() != 1 {
		t.Errorf("materialised map has %d entries, want 1", m.Len())
	}
	if _, ok := m.Get(addr(2)); !ok {
		t.Error("pending write missing from materialised view")
	}
	// The base still holds the original entry.
	bm, _ := base.LoadField("balances")
	if bm.(*value.Map).Len() != 1 {
		t.Error("materialisation mutated the base")
	}
	if _, ok := bm.(*value.Map).Get(addr(1)); !ok {
		t.Error("base entry deleted through overlay")
	}
}

// TestOverlayWholeFieldStoreThenMapOps: a wholesale map store followed
// by entry operations mutates the stored copy.
func TestOverlayWholeFieldStoreThenMapOps(t *testing.T) {
	base := newBase()
	ov := chain.NewOverlay(base, testFieldTypes)
	fresh := value.NewMap(ast.TyByStr20, ast.TyUint128)
	fresh.Set(addr(1), value.Uint128(5))
	if err := ov.StoreField("balances", fresh); err != nil {
		t.Fatal(err)
	}
	if err := eval.SetAt(ov, "balances", []value.Value{addr(2)}, value.Uint128(6)); err != nil {
		t.Fatal(err)
	}
	if err := deleteAt(ov, "balances", []value.Value{addr(1)}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := eval.GetAt(ov, "balances", []value.Value{addr(2)})
	if err != nil || !ok || v.(value.Int).V.Uint64() != 6 {
		t.Errorf("entry after whole-store: %v %v %v", v, ok, err)
	}
	if _, ok, _ := eval.GetAt(ov, "balances", []value.Value{addr(1)}); ok {
		t.Error("deleted entry still present")
	}
	// Delta is a whole-field overwrite.
	d, err := ov.ExtractDelta(chain.Address{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fields) != 1 || d.Fields[0].Name != "balances" || d.Fields[0].Whole == nil || d.Fields[0].Whole.Kind != chain.Overwrite {
		t.Errorf("expected whole-field overwrite delta, got %s", d)
	}
	// StoreField does not capture later mutations of the caller's map.
	fresh.Set(addr(3), value.Uint128(9))
	if _, ok, _ := eval.GetAt(ov, "balances", []value.Value{addr(3)}); ok {
		t.Error("overlay aliases the stored map value")
	}
}

// TestDeepNestedThroughInterpreter drives the three-level map contract
// end to end through interpreter + overlay + delta + merge.
func TestDeepNestedThroughInterpreter(t *testing.T) {
	chk := contracts.MustParse("MapCornercases")
	owner := chain.AddrFromUint(1)
	in, err := eval.New(chk, map[string]value.Value{"owner": owner.Value()})
	if err != nil {
		t.Fatal(err)
	}
	base := eval.NewMemState(chk.FieldTypes)
	if err := base.InitFrom(in); err != nil {
		t.Fatal(err)
	}
	ov := chain.NewOverlay(base, chk.FieldTypes)
	ctx := &eval.Context{
		Sender: owner.Value(), Origin: owner.Value(),
		Amount: value.Uint128(0), BlockNumber: big.NewInt(1), State: ov,
	}
	if _, err := in.Run(ctx, "PutDeep", map[string]value.Value{
		"k1": owner.Value(),
		"k2": value.Str{S: "a"},
		"k3": value.Str{S: "b"},
		"v":  value.Uint128(42),
	}); err != nil {
		t.Fatalf("PutDeep: %v", err)
	}
	d, err := ov.ExtractDelta(chain.Address{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged := base.Copy()
	if err := chain.MergeDeltas(merged, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
		t.Fatal(err)
	}
	keys := []value.Value{owner.Value(), value.Str{S: "a"}, value.Str{S: "b"}}
	v, ok, err := eval.GetAt(merged, "deep", keys)
	if err != nil || !ok || v.(value.Int).V.Uint64() != 42 {
		t.Fatalf("deep entry after merge: %v %v %v", v, ok, err)
	}
	// GetDeep through a fresh overlay over the merged state.
	ov2 := chain.NewOverlay(merged, chk.FieldTypes)
	ctx2 := &eval.Context{
		Sender: owner.Value(), Origin: owner.Value(),
		Amount: value.Uint128(0), BlockNumber: big.NewInt(1), State: ov2,
	}
	res, err := in.Run(ctx2, "GetDeep", map[string]value.Value{
		"k1": owner.Value(), "k2": value.Str{S: "a"}, "k3": value.Str{S: "b"},
	})
	if err != nil {
		t.Fatalf("GetDeep: %v", err)
	}
	if len(res.Events) != 1 {
		t.Fatal("GetDeep emitted no event")
	}
	if got := res.Events[0].Entries["v"].(value.Int); got.V.Uint64() != 42 {
		t.Errorf("GetDeep returned %s", got)
	}
	// DeleteDeep then confirm absence.
	if _, err := in.Run(ctx2, "DeleteDeep", map[string]value.Value{
		"k1": owner.Value(), "k2": value.Str{S: "a"}, "k3": value.Str{S: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := eval.GetAt(ov2, "deep", keys); ok {
		t.Error("deep entry survived delete")
	}
}
