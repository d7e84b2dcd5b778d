package store

import (
	"math/big"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// pairsSrc keeps a map of maps keyed by strings.
const pairsSrc = `
scilla_version 0

library Pairs

contract Pairs
(owner : ByStr20)

field pairs : Map String (Map String Uint128) = Emp String (Map String Uint128)

transition Put (k1 : String, k2 : String, v : Uint128)
  pairs[k1][k2] := v
end

transition Del (k1 : String, k2 : String)
  delete pairs[k1][k2]
end
`

// pairsWorld is a network with the Pairs contract and the users that
// call it.
type pairsWorld struct {
	net      *shard.Network
	contract chain.Address
	users    []chain.Address
}

// provisionPairs is the deterministic genesis of TestControlByteKeys:
// enough funded users that the state's leaves outweigh what an epoch
// writes, so its boundaries write incremental files.
func provisionPairs(t *testing.T) *pairsWorld {
	t.Helper()
	n := shard.NewNetwork(shard.WithShards(2))
	deployer := chain.AddrFromUint(1)
	n.CreateUser(deployer, 1<<50)
	w := &pairsWorld{net: n}
	for i := 0; i < 200; i++ {
		w.users = append(w.users, chain.AddrFromUint(uint64(100+i)))
		n.CreateUser(w.users[i], 1<<40)
	}
	var err error
	if w.contract, err = n.DeployContract(deployer, pairsSrc, map[string]value.Value{"owner": deployer.Value()}, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// call submits user i's call of transition at epoch k: every user
// calls at most once an epoch, so its nonce is k.
func (w *pairsWorld) call(i, k int, transition string, args map[string]value.Value) {
	w.net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: w.users[i], To: w.contract, Nonce: uint64(k),
		Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
		Transition: transition, Args: args,
	})
}

// put submits user i's pairs[k1][k2] := v at epoch k.
func (w *pairsWorld) put(i, k int, k1, k2 string, v int) {
	w.call(i, k, "Put", map[string]value.Value{"k1": value.Str{S: k1}, "k2": value.Str{S: k2}, "v": value.Uint128(uint64(v))})
}

// commit runs epoch k, which must commit all n of its transactions.
func (w *pairsWorld) commit(t *testing.T, k, n int) {
	t.Helper()
	stats, err := w.net.RunEpoch()
	if err != nil {
		t.Fatalf("epoch %d: %v", k, err)
	}
	if stats.Committed != n {
		t.Fatalf("epoch %d committed %d transactions, want %d", k, stats.Committed, n)
	}
}

// run commits epoch k: user i puts pairs[k1][k2] for the i-th of the
// outer and inner keys below, some of them holding bytes below the
// keypath separator and one a prefix of others. The first user puts
// pairs["e\x01"]["x"] at epoch 1 and deletes it after, which leaves an
// empty nested map.
func (w *pairsWorld) run(t *testing.T, k int) {
	t.Helper()
	outer := []string{"a", "a\x01", "a\x1e", "b", "a\x01\x01"}
	inner := []string{"x", "x\x01", "", "x\x1e"}
	if k == 1 {
		w.put(0, k, "e\x01", "x", 1)
	} else {
		w.call(0, k, "Del", map[string]value.Value{"k1": value.Str{S: "e\x01"}, "k2": value.Str{S: "x"}})
	}
	for i := 1; i < 6; i++ {
		w.put(i, k, outer[(i+k)%len(outer)], inner[(i*k)%len(inner)], 10*k+i)
	}
	w.commit(t, k, 6)
}

// TestSeparatorInStringKeys: pairs["a\x1fs:b"]["c"] and
// pairs["a"]["b\x1fs:c"], whose keys joined raw by the keypath
// separator would render one keypath, are two state components. States
// holding one or the other have different roots; an epoch writing both
// keeps both, its incremental root is a fresh rendering's, and the
// boundary written at it recovers the committee's root.
func TestSeparatorInStringKeys(t *testing.T) {
	entries := [][2]string{{"a\x1fs:b", "c"}, {"a", "b\x1fs:c"}}
	var roots []string
	for _, e := range entries {
		w := provisionPairs(t)
		w.put(0, 1, e[0], e[1], 1)
		w.commit(t, 1, 1)
		roots = append(roots, w.net.StateRoot())
	}
	if roots[0] == roots[1] {
		t.Errorf("pairs[%q][%q] and pairs[%q][%q] have one root %s", entries[0][0], entries[0][1], entries[1][0], entries[1][1], roots[0])
	}

	live := provisionPairs(t)
	dir := t.TempDir()
	st := openStore(t, dir, WithSnapshotEvery(1))
	if err := st.Recover(live.net); err != nil {
		t.Fatal(err)
	}
	live.net.AttachStateStore(st)
	for i, e := range entries {
		live.put(i, 1, e[0], e[1], i+1)
	}
	live.commit(t, 1, len(entries))
	pairs := live.net.Contracts.Get(live.contract).Snapshot().Fields["pairs"].(*value.Map)
	for i, e := range entries {
		inner, _ := pairs.Get(value.Str{S: e[0]})
		m, _ := inner.(*value.Map)
		if m == nil {
			t.Fatalf("pairs[%q] is gone", e[0])
		}
		if v, ok := m.Get(value.Str{S: e[1]}); !ok || !value.Equal(v, value.Uint128(uint64(i+1))) {
			t.Errorf("pairs[%q][%q] = %v, want %d", e[0], e[1], v, i+1)
		}
	}
	root, cp := live.net.StateRoot(), live.net.Checkpoint()
	if fresh := live.net.RecomputeStateRoot(); root != fresh {
		t.Errorf("incremental root %s, fresh rendering %s", root, fresh)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := provisionPairs(t)
	stR := openStore(t, dir)
	if err := stR.Recover(restarted.net); err != nil {
		t.Fatalf("recovering the boundary: %v", err)
	}
	stR.Close()
	if got := restarted.net.StateRoot(); got != root || restarted.net.Checkpoint() != cp {
		t.Errorf("recovered %+v root %s, committee %+v root %s", restarted.net.Checkpoint(), got, cp, root)
	}
}

// TestControlByteKeys: a Map String (Map String Uint128) field whose
// keys hold bytes below the keypath separator, one of them continuing
// another, is walked level by level in keypath order, so its records
// are canonical: its incremental files, a full file of it and its state
// image are read back, and each recovers the committee's root.
func TestControlByteKeys(t *testing.T) {
	const epochs = 4
	live := provisionPairs(t)
	dir := t.TempDir()
	st := openStore(t, dir, WithSnapshotEvery(1))
	if err := st.Recover(live.net); err != nil {
		t.Fatal(err)
	}
	live.net.AttachStateStore(st)
	for k := 1; k <= epochs; k++ {
		live.run(t, k)
	}
	root, cp := live.net.StateRoot(), live.net.Checkpoint()
	if n, full := st.snapshots.Value(), st.snapshotsFull.Value(); n < epochs || full != 0 {
		t.Fatalf("%d boundaries, %d of them full: want incremental files only", n, full)
	}
	pairs := live.net.Contracts.Get(live.contract).Snapshot().Fields["pairs"].(*value.Map)
	if inner, _ := pairs.Get(value.Str{S: "e\x01"}); inner.(*value.Map).Len() != 0 {
		t.Fatalf("pairs[\"e\\x01\"] = %v, want the empty map the delete leaves", inner)
	}
	walked := stateRecords{put: func([]byte) error { return nil }}
	walked.whole(live.contract, "pairs", pairs)
	walk := walked.cur.Fields[0].Entries
	if len(walk) < 2 {
		t.Fatalf("the map walk wrote %d entries", len(walk))
	}
	for i := 1; i < len(walk); i++ {
		if walk[i-1].Keypath >= walk[i].Keypath {
			t.Fatalf("the map walk wrote %q before %q: not in strictly increasing keypath order", walk[i-1].Keypath, walk[i].Keypath)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := func(what string, w *pairsWorld) {
		t.Helper()
		if got := w.net.StateRoot(); got != root || w.net.RecomputeStateRoot() != root || w.net.Checkpoint() != cp {
			t.Errorf("%s: %+v root %s (recomputed %s), committee %+v root %s",
				what, w.net.Checkpoint(), got, w.net.RecomputeStateRoot(), cp, root)
		}
	}
	incremental := provisionPairs(t)
	stInc := openStore(t, dir)
	if err := stInc.Recover(incremental.net); err != nil {
		t.Fatalf("recovering the incremental files: %v", err)
	}
	stInc.Close()
	recovered("incremental files", incremental)

	fullDir := t.TempDir()
	if _, err := writeSnapshotFile(fullDir, snapshotName(cp.Epoch), func(put putRecord) error {
		return writeFull(put, live.net, cp)
	}); err != nil {
		t.Fatal(err)
	}
	full := provisionPairs(t)
	stFull := openStore(t, fullDir)
	if err := stFull.Recover(full.net); err != nil {
		t.Fatalf("recovering the full file: %v", err)
	}
	stFull.Close()
	recovered("full file", full)

	image := provisionPairs(t)
	if applied, err := ApplyImage(image.net, imageOf(t, live.net)); !applied || err != nil {
		t.Fatalf("state image: applied %v, %v", applied, err)
	}
	recovered("state image", image)
}

// TestDirtyKeysFromKeypaths: a dirty set keeps an entry's keypath
// alone, and its keys — integers, byte strings, block numbers and
// Strings holding the keypath separator and the escape byte, at any
// depth — are rebuilt from it level by level from the field's types.
func TestDirtyKeysFromKeypaths(t *testing.T) {
	inner := ast.MapType{Key: ast.TyBNum, Val: ast.TyUint128}
	field := value.NewMap(ast.TyByStr20, ast.MapType{Key: ast.TyUint32, Val: inner})
	strs := value.NewMap(ast.TyString, ast.MapType{Key: ast.TyString, Val: ast.TyUint128})
	addr := chain.AddrFromUint(9).Value()
	str := func(s string) value.Value { return value.Str{S: s} }
	for _, c := range []struct {
		field *value.Map
		keys  []value.Value
	}{
		{field, []value.Value{addr}},
		{field, []value.Value{addr, value.Uint32V(7)}},
		{field, []value.Value{addr, value.Uint32V(70), value.BNum{V: big.NewInt(12)}}},
		{strs, []value.Value{str("a\x1fs:b")}},
		{strs, []value.Value{str("a\x1fs:b"), str("c")}},
		{strs, []value.Value{str("a"), str("b\x1fs:c\x7f")}},
		{strs, []value.Value{str("\x7f\x7f\x00"), str("")}},
	} {
		kp := chain.Keypath(c.keys)
		got, err := keysOf(c.field, kp)
		if err != nil || chain.Keypath(got) != kp || len(got) != len(c.keys) {
			t.Fatalf("%q: rebuilt %v (%v)", kp, got, err)
		}
		for i := range c.keys {
			if !value.Equal(got[i], c.keys[i]) {
				t.Errorf("%q: key %d rebuilt as %v, was %v", kp, i, got[i], c.keys[i])
			}
		}
	}
	if _, err := keysOf(field, chain.Keypath([]value.Value{addr, value.Uint32V(1), value.BNum{V: big.NewInt(1)}, value.Uint32V(1)})); err == nil {
		t.Error("a keypath deeper than the field's map rebuilt keys")
	}
}
