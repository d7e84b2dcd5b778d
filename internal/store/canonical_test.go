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

// run commits epoch k: user i puts pairs[k1][k2] for the i-th of the
// outer and inner keys below, one of them holding bytes below the
// keypath separator, so that a level's canonical key order is not the
// keypath order of the leaves below it ("a" sorts before "a\x01", but
// "a"'s leaves after "a\x01"'s). The first user puts pairs["e\x01"]["x"]
// at epoch 1 and deletes it after, which leaves an empty nested map.
func (w *pairsWorld) run(t *testing.T, k int) {
	t.Helper()
	outer := []string{"a", "a\x01", "a\x1e", "b", "a\x01\x01"}
	inner := []string{"x", "x\x01", "", "x\x1e"}
	call := func(from chain.Address, transition string, args map[string]value.Value) {
		w.net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: from, To: w.contract, Nonce: uint64(k),
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: transition, Args: args,
		})
	}
	put := func(from chain.Address, k1, k2 string, v int) {
		call(from, "Put", map[string]value.Value{"k1": value.Str{S: k1}, "k2": value.Str{S: k2}, "v": value.Uint128(uint64(v))})
	}
	if k == 1 {
		put(w.users[0], "e\x01", "x", 1)
	} else {
		call(w.users[0], "Del", map[string]value.Value{"k1": value.Str{S: "e\x01"}, "k2": value.Str{S: "x"}})
	}
	for i := 1; i < 6; i++ {
		put(w.users[i], outer[(i+k)%len(outer)], inner[(i*k)%len(inner)], 10*k+i)
	}
	stats, err := w.net.RunEpoch()
	if err != nil {
		t.Fatalf("epoch %d: %v", k, err)
	}
	if stats.Committed != 6 {
		t.Fatalf("epoch %d committed %d transactions, want 6", k, stats.Committed)
	}
}

// TestControlByteKeys: a Map String (Map String Uint128) field whose
// keys hold bytes below the keypath separator is written in canonical
// order however its levels walk — the record writer sorts what the walk
// put out of order — so its incremental files, a full file of it and
// its state image are read back, and each recovers the committee's root.
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
	if !walked.unsorted {
		t.Fatal("the map walk came out in keypath order: the test does not reach the writer's sort")
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

// TestDirtyKeysFromKeypaths: a dirty set keeps no key of an entry whose
// keys are none of them a String — integers, byte strings, block
// numbers, at any depth — and rebuilds them from the keypath, level by
// level from the field's types; an entry with a String key, whose
// canonical form may hold the separator, keeps its keys.
func TestDirtyKeysFromKeypaths(t *testing.T) {
	inner := ast.MapType{Key: ast.TyBNum, Val: ast.TyUint128}
	field := value.NewMap(ast.TyByStr20, ast.MapType{Key: ast.TyUint32, Val: inner})
	addr := chain.AddrFromUint(9).Value()
	for _, keys := range [][]value.Value{
		{addr},
		{addr, value.Uint32V(7)},
		{addr, value.Uint32V(70), value.BNum{V: big.NewInt(12)}},
	} {
		kp := chain.Keypath(keys)
		if kept := keptKeys(keys); kept != nil {
			t.Fatalf("%q: the set keeps %d keys", kp, len(kept))
		}
		got, err := keysOf(field, kp)
		if err != nil || chain.Keypath(got) != kp || len(got) != len(keys) {
			t.Fatalf("%q: rebuilt %v (%v)", kp, got, err)
		}
		for i := range keys {
			if !value.Equal(got[i], keys[i]) {
				t.Errorf("%q: key %d rebuilt as %v, was %v", kp, i, got[i], keys[i])
			}
		}
	}
	withString := []value.Value{addr, value.Str{S: "a\x1fs:b"}}
	if kept := keptKeys(withString); len(kept) != 2 {
		t.Errorf("an entry under a String key keeps %d keys, want its 2", len(kept))
	}
	if _, err := keysOf(field, chain.Keypath([]value.Value{addr, value.Uint32V(1), value.BNum{V: big.NewInt(1)}, value.Uint32V(1)})); err == nil {
		t.Error("a keypath deeper than the field's map rebuilt keys")
	}
}
