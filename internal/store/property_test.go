package store

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// nestedWorld is a network with four deployed contracts whose state is
// nested maps, map deletes and whole-field writes — the shapes an
// incremental snapshot has to get right — and the users that call them.
type nestedWorld struct {
	net                 *shard.Network
	users               []chain.Address
	ft, cf, ipfs, maps  chain.Address
	cfDeadline          uint64 // Donate before this block, ClaimBack after
	genesis, genesisBlk uint64
}

// nestedUsers is the population — large beside what an interval touches,
// so that boundaries take the incremental side — and nestedActive how
// many of them send a transaction in one epoch.
const (
	nestedUsers   = 400
	nestedActive  = 16
	nestedBackers = 9
)

// provisionNested is the deterministic genesis of the recovery
// property test.
func provisionNested(t *testing.T) *nestedWorld {
	t.Helper()
	n := shard.NewNetwork(shard.WithShards(4))
	deployer := chain.AddrFromUint(1)
	n.CreateUser(deployer, 1<<60)
	n.CreateUser(chain.AddrFromUint(2), 1<<50) // batch's scripted caller
	w := &nestedWorld{net: n}
	for i := 0; i < nestedUsers; i++ {
		w.users = append(w.users, chain.AddrFromUint(uint64(100+i)))
		n.CreateUser(w.users[i], 1<<50)
	}
	deploy := func(name string, params map[string]value.Value, q *signature.Query) chain.Address {
		entry, err := contracts.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := n.DeployContract(deployer, entry.Source, params, q)
		if err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
		return addr
	}
	w.genesisBlk = n.Checkpoint().BlockNumber
	w.cfDeadline = w.genesisBlk + 7
	w.ft = deploy("FungibleToken", map[string]value.Value{
		"contract_owner": deployer.Value(), "token_name": value.Str{S: "T"}, "token_symbol": value.Str{S: "T"},
		"decimals": value.Uint32V(6), "init_supply": value.Uint128(1 << 50),
	}, &signature.Query{Transitions: []string{"Mint", "Transfer", "TransferFrom"}, WeakReads: []string{"balances", "allowances"}})
	w.cf = deploy("Crowdfunding", map[string]value.Value{
		"owner": deployer.Value(), "max_block": value.BNum{V: new(big.Int).SetUint64(w.cfDeadline)}, "goal": value.Uint128(1 << 40),
	}, &signature.Query{Transitions: []string{"Donate", "ClaimBack"}, WeakReads: []string{signature.BalanceField}})
	// RegisterOwnership's two ownership constraints mostly resolve to
	// different shards, and the other transitions are not in the
	// signature at all: about two thirds of these calls run on the DS
	// committee, so DSDeltas and DSAccounts carry keys too.
	w.ipfs = deploy("ProofIPFS", map[string]value.Value{"initial_admin": deployer.Value()},
		&signature.Query{Transitions: []string{"RegisterOwnership"}, WeakReads: []string{"collected", "item_count", signature.BalanceField}})
	w.maps = deploy("MapCornercases", map[string]value.Value{"owner": deployer.Value()}, nil)
	w.genesis = n.Checkpoint().Epoch
	return w
}

func hashOf(n uint64) value.ByStr {
	b := make([]byte, 32)
	for i := 0; i < 8; i++ {
		b[31-i] = byte(n >> (8 * i))
	}
	return value.ByStr{Ty: ast.TyByStr32, B: b}
}

// batch is epoch k's transactions under seed: nestedActive users send
// one each, with nonce k. Which hashes a user registered, which deep keys it
// put, is derived from (seed, user, earlier k) alone, so the same batch
// comes out for the live run and for a network resumed after recovery.
// Some calls fail (a second donation, a remove of a hash transferred
// away): a failed call still moves its sender's nonce and balance.
func (w *nestedWorld) batch(seed int64, k int) []*chain.Tx {
	rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
	var txs []*chain.Tx
	call := func(from, to chain.Address, transition string, amount int64, args map[string]value.Value) {
		txs = append(txs, &chain.Tx{
			Kind: chain.TxCall, From: from, To: to, Nonce: uint64(k),
			Amount: big.NewInt(amount), GasLimit: 100_000, GasPrice: 1,
			Transition: transition, Args: args,
		})
	}
	// hash and deep keys user u introduced at epoch j.
	item := func(u, j int) value.ByStr { return hashOf(uint64(seed)<<32 | uint64(u)<<16 | uint64(j)) }
	deepKeys := func(u, j int) map[string]value.Value {
		return map[string]value.Value{
			"k1": w.users[u].Value(), "k2": value.Str{S: fmt.Sprintf("o%d", j%2)}, "k3": value.Str{S: fmt.Sprintf("i%d", j)},
		}
	}
	// The first nestedBackers users keep to the script below.
	for _, u := range rng.Perm(len(w.users) - nestedBackers)[:nestedActive] {
		u += nestedBackers
		from := w.users[u]
		other := w.users[rng.Intn(len(w.users))]
		earlier := 1
		if k > 1 {
			earlier = 1 + rng.Intn(k-1)
		}
		switch rng.Intn(12) {
		case 0:
			call(from, w.ft, "Approve", 0, map[string]value.Value{"spender": other.Value(), "amount": value.Uint128(uint64(10 + k))})
		case 1:
			call(from, w.ft, "IncreaseAllowance", 0, map[string]value.Value{"spender": other.Value(), "amount": value.Uint128(3)})
		case 2:
			call(chain.AddrFromUint(1), w.ft, "Transfer", 0, map[string]value.Value{"to": from.Value(), "amount": value.Uint128(5)})
			txs[len(txs)-1].Nonce = uint64(1000*k + u) // the deployer sends many: any increasing nonce will do
		case 3:
			call(from, w.cf, "Donate", 10, nil)
		case 4:
			call(from, w.cf, "ClaimBack", 0, nil)
		case 5, 6:
			call(from, w.ipfs, "RegisterOwnership", 0, map[string]value.Value{"item_hash": item(u, k)})
		case 7:
			call(from, w.ipfs, "RemoveOwnership", 0, map[string]value.Value{"item_hash": item(u, earlier)})
		case 8:
			call(from, w.ipfs, "TransferOwnership", 0, map[string]value.Value{"item_hash": item(u, earlier), "new_owner": other.Value()})
		case 9, 10:
			args := deepKeys(u, k)
			args["v"] = value.Uint128(uint64(k))
			call(from, w.maps, "PutDeep", 0, args)
		case 11:
			call(from, w.maps, "DeleteDeep", 0, deepKeys(u, earlier))
		}
	}
	// Whatever the dice say, some backers donate before the deadline and
	// claim back after it, a third of them per epoch: deletes from a
	// single-level map, spread over snapshot intervals.
	for u, from := range w.users[:nestedBackers] {
		switch {
		case k == 3:
			call(from, w.cf, "Donate", 10, nil)
		case k >= 10 && k == 10+u%3:
			call(from, w.cf, "ClaimBack", 0, nil)
		}
	}
	// And the case a snapshot must not get wrong: a
	// nested entry put under an outer key absent at genesis, and deleted
	// again one epoch (odd seeds: two) later — inside one snapshot
	// interval or across a boundary, as the cadence falls. The delete
	// leaves deep[k1][k2] behind as an empty map.
	scripted := chain.AddrFromUint(2)
	keys := map[string]value.Value{"k1": scripted.Value(), "k2": value.Str{S: "outer"}, "k3": value.Str{S: fmt.Sprint(seed)}}
	switch k {
	case 2:
		keys["v"] = value.Uint128(7)
		call(scripted, w.maps, "PutDeep", 0, keys)
	case 3 + int(seed%2):
		call(scripted, w.maps, "DeleteDeep", 0, keys)
	}
	return txs
}

func (w *nestedWorld) run(t *testing.T, seed int64, first, epochs int) (roots []string, cps []shard.Checkpoint) {
	t.Helper()
	for k := first; k < first+epochs; k++ {
		for _, tx := range w.batch(seed, k) {
			w.net.Submit(tx)
		}
		stats, err := w.net.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		if stats.Committed == 0 {
			t.Fatalf("epoch %d committed nothing", k)
		}
		roots = append(roots, w.net.StateRoot())
		cps = append(cps, w.net.Checkpoint())
	}
	return roots, cps
}

// TestRecoveryEquivalence is the property the incremental format must
// keep: whatever the contracts wrote and wherever the boundaries and
// the kill fall, the recovered network is the live one. Per seed: a
// snapshot cadence of 1–5, a kill at a random epoch inside an interval
// (so the keys of the journal tail have to make it into the next file),
// recovery, a run past the next boundary, a second kill and recovery,
// and a run to the end with a recovery of a copy of the result. After
// every recovery the root, a from-scratch recompute of it and the
// checkpoint equal the uninterrupted run's at that epoch.
func TestRecoveryEquivalence(t *testing.T) {
	const epochs = 24
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			every := 1 + rng.Intn(5)

			live := provisionNested(t)
			scripted := chain.AddrFromUint(2)
			roots, cps := live.run(t, seed, 1, epochs)
			if m, ok := descendField(t, live, "deep", scripted.Value(), value.Str{S: "outer"}); !ok || m.Len() != 0 {
				t.Fatalf("the scripted put-then-delete did not leave an empty deep[k1][k2] behind: %v, %v", m, ok)
			}
			if backers := live.net.Contracts.Get(live.cf).Snapshot().Fields["backers"].(*value.Map); backers.Len() == 0 {
				t.Fatal("nobody is left in backers: the random donors should be")
			} else if _, still := backers.Get(live.users[0].Value()); still {
				t.Fatal("the scripted ClaimBack did not delete its backer")
			}
			dsKeys := 0
			reg := obs.NewRegistry() // the three stores of the run count into one
			check := func(w *nestedWorld, k int, what string) {
				t.Helper()
				if got := w.net.Checkpoint(); got != cps[k-1] {
					t.Fatalf("%s at epoch %d: checkpoint %+v, live run %+v", what, k, got, cps[k-1])
				}
				if got := w.net.StateRoot(); got != roots[k-1] {
					t.Fatalf("%s at epoch %d: root %s, live run %s", what, k, got, roots[k-1])
				}
				if got := w.net.RecomputeStateRoot(); got != roots[k-1] {
					t.Fatalf("%s at epoch %d: recomputed root %s, live run %s", what, k, got, roots[k-1])
				}
			}
			reopen := func(dir string) (*nestedWorld, *Store) {
				t.Helper()
				w := provisionNested(t)
				st := openStore(t, dir, WithSnapshotEvery(every), WithRegistry(reg))
				if err := st.Recover(w.net); err != nil {
					t.Fatalf("recover: %v", err)
				}
				w.net.AttachStateStore(&dsCounting{Store: st, keys: &dsKeys})
				return w, st
			}

			// Kill inside an interval: one to every-1 epochs past a
			// boundary (on a boundary itself when every epoch is one).
			dir := t.TempDir()
			a, _ := reopen(dir)
			kill := 2 + rng.Intn(6)
			for every > 1 && (a.genesis+uint64(kill))%uint64(every) == 0 {
				kill++
			}
			a.run(t, seed, 1, kill)
			check(a, kill, "first run")

			b, _ := reopen(dir)
			check(b, kill, "first recovery")
			next := kill + every + 1 // past the next boundary, and inside the interval after it
			b.run(t, seed, kill+1, next-kill)
			check(b, next, "resumed run")

			c, stC := reopen(dir)
			check(c, next, "second recovery")
			c.run(t, seed, next+1, epochs-next)
			check(c, epochs, "final run")
			if err := stC.Close(); err != nil {
				t.Fatal(err)
			}
			restored, stR := reopen(copyDir(t, dir))
			stR.Close()
			check(restored, epochs, "recovery of a copy")
			snapshotChainOf(t, dir, live.genesis)
			if full, all := stC.snapshotsFull.Value(), stC.snapshots.Value(); full == all || full == 0 {
				t.Fatalf("%d of the %d boundaries wrote a full file: the run should have crossed both kinds", full, all)
			}
			if dsKeys == 0 {
				t.Fatal("no block carried DS-phase deltas: the DSDeltas/DSAccounts half of the dirty set went untested")
			}
		})
	}
}

// TestImageOverOlderReplica: a state image applies over a replica that
// is not at genesis. The replica stopped at epoch 3, holding a nested
// map entry (deep[k1]["outer"]) and a backer that the committee deleted
// in the nine epochs after it; over the image it must hold neither and
// land on the committee's checkpoint and root.
func TestImageOverOlderReplica(t *testing.T) {
	const seed = 1 // odd: the scripted nested entry is deleted at epoch 4
	committee, replica := provisionNested(t), provisionNested(t)
	roots, cps := committee.run(t, seed, 1, 12)
	replica.run(t, seed, 1, 3)
	scripted, backer := chain.AddrFromUint(2), replica.users[0].Value()
	backers := func(w *nestedWorld) *value.Map {
		return w.net.Contracts.Get(w.cf).Snapshot().Fields["backers"].(*value.Map)
	}
	held := func(w *nestedWorld) (nested, backed bool) {
		m, ok := descendField(t, w, "deep", scripted.Value(), value.Str{S: "outer"})
		_, backed = backers(w).Get(backer)
		return ok && m.Len() > 0, backed
	}
	if nested, backed := held(replica); !nested || !backed {
		t.Fatalf("replica at epoch 3 holds the nested entry %v, the backer %v; want both", nested, backed)
	}
	if nested, backed := held(committee); nested || backed {
		t.Fatalf("committee at epoch 12 holds the nested entry %v, the backer %v; want neither", nested, backed)
	}

	if applied, err := ApplyImage(replica.net, imageOf(t, committee.net)); !applied || err != nil {
		t.Fatalf("image over the epoch-3 replica: applied %v, %v", applied, err)
	}
	if nested, backed := held(replica); nested || backed {
		t.Errorf("replica over the image holds the nested entry %v, the backer %v; want neither", nested, backed)
	}
	if got := replica.net.Checkpoint(); got != cps[11] {
		t.Errorf("replica checkpoint %+v, want %+v", got, cps[11])
	}
	if got := replica.net.StateRoot(); got != roots[11] || replica.net.RecomputeStateRoot() != roots[11] {
		t.Errorf("replica root %s (recomputed %s), committee %s", got, replica.net.RecomputeStateRoot(), roots[11])
	}
}

// dsCounting counts the DS-phase keys of the blocks passing through to
// the store, so the test can tell its workload did reach them.
type dsCounting struct {
	*Store
	keys *int
}

func (s *dsCounting) EpochCommitted(n *shard.Network, fb *shard.FinalBlock, cp shard.Checkpoint) error {
	for _, d := range fb.DSDeltas {
		*s.keys += d.Size()
	}
	if fb.DSAccounts != nil {
		*s.keys += len(fb.DSAccounts.BalanceDeltas) + len(fb.DSAccounts.Nonces)
	}
	return s.Store.EpochCommitted(n, fb, cp)
}

// descendField reads maps[field][keys...] as a map.
func descendField(t *testing.T, w *nestedWorld, field string, keys ...value.Value) (*value.Map, bool) {
	t.Helper()
	v, found, err := eval.GetAt(w.net.Contracts.Get(w.maps).Snapshot(), field, keys)
	if err != nil {
		t.Fatal(err)
	}
	m, isMap := v.(*value.Map)
	return m, found && isMap
}

// TestPostEntry pins the record an incremental file holds for a dirty
// entry, case by case: in particular that an entry deleted out of a
// nested map which is left empty is written as that empty map, not as a
// delete recovery would apply to a genesis where the map never existed.
func TestPostEntry(t *testing.T) {
	str := func(s string) value.Value { return value.Str{S: s} }
	inner := ast.MapType{Key: ast.TyString, Val: ast.TyUint128}
	mid := ast.MapType{Key: ast.TyString, Val: inner}
	field := value.NewMap(ast.TyString, mid) // Map String (Map String (Map String Uint128))
	put := func(v value.Value, keys ...string) {
		m := field
		for i, k := range keys[:len(keys)-1] {
			next, ok := m.Get(str(k))
			if !ok {
				if i == 0 {
					next = value.NewMap(ast.TyString, inner)
				} else {
					next = value.NewMap(ast.TyString, ast.TyUint128)
				}
				m.Set(str(k), next)
			}
			m = next.(*value.Map)
		}
		m.Set(str(keys[len(keys)-1]), v)
	}
	put(value.Uint128(1), "a", "b", "c")
	put(value.NewMap(ast.TyString, ast.TyUint128), "a", "e") // a.e = {} left by deletes
	put(value.NewMap(ast.TyString, inner), "x")              // x = {}

	for _, tc := range []struct {
		keys     []string
		kind     chain.DeltaKind
		wantKeys int // keys of the record
	}{
		{[]string{"a", "b", "c"}, chain.Overwrite, 3}, // present
		{[]string{"a", "b"}, chain.Overwrite, 2},      // present, a map
		{[]string{"a", "b", "d"}, chain.Delete, 3},    // gone, parent non-empty
		{[]string{"a", "e", "f"}, chain.Overwrite, 2}, // gone, parent left empty
		{[]string{"a", "g", "h"}, chain.Delete, 3},    // gone with its parent, grandparent non-empty
		{[]string{"x", "y", "z"}, chain.Overwrite, 1}, // gone with its parent, grandparent left empty
		{[]string{"q", "r", "s"}, chain.Delete, 3},    // nothing on the path but the field
		{[]string{"q"}, chain.Delete, 1},              // single key, gone: the field always exists
	} {
		var keys []value.Value
		for _, k := range tc.keys {
			keys = append(keys, str(k))
		}
		e := postEntry(field, chain.Keypath(keys), keys)
		if e.Kind != tc.kind || len(e.Keys) != tc.wantKeys {
			t.Errorf("%v: %v of %d keys, want %v of %d", tc.keys, e.Kind, len(e.Keys), tc.kind, tc.wantKeys)
		}
		if m, isMap := e.Value.(*value.Map); len(e.Keys) < len(keys) && (!isMap || m.Len() != 0) {
			t.Errorf("%v: ancestor record holds %v, want an empty map", tc.keys, e.Value)
		}
	}
	// An empty single-level field is not an ancestor to write: deletes
	// apply to it directly.
	empty := value.NewMap(ast.TyString, ast.TyUint128)
	if e := postEntry(empty, chain.Keypath([]value.Value{str("k")}), []value.Value{str("k")}); e.Kind != chain.Delete {
		t.Errorf("entry gone from an empty field: %v, want Delete", e.Kind)
	}
}
