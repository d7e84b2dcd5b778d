package shard_test

import (
	"bytes"
	"errors"
	"maps"
	"math/big"
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/dispatch"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// entryDelta builds a one-field StateDelta for contract c out of
// entries of distinct keys, in keypath order as ExtractDelta orders them.
func entryDelta(c chain.Address, shardID int, field string, entries ...chain.EntryDelta) *chain.StateDelta {
	chain.SortEntries(entries)
	return &chain.StateDelta{Contract: c, Shard: shardID, Fields: []chain.FieldDelta{{Name: field, Entries: entries}}}
}

func overwriteEntry(v uint64, keys ...value.Value) chain.EntryDelta {
	return chain.EntryDelta{Kind: chain.Overwrite, Keypath: chain.Keypath(keys), Keys: keys, Value: u128(v)}
}

func addEntry(d int64, keys ...value.Value) chain.EntryDelta {
	return chain.EntryDelta{Kind: chain.IntAdd, Keypath: chain.Keypath(keys), Keys: keys, Delta: big.NewInt(d)}
}

// TestFailedPhaseLeavesNoTrace: a commit phase is all or nothing. Each
// case carries a good delta for the contract that merges first and a
// failure further on — in a later contract's merge or in the account
// delta — and afterwards contract states, accounts, the incremental
// root and the recomputed root must all be what they were before the
// call, and the network must still take a good block.
func TestFailedPhaseLeavesNoTrace(t *testing.T) {
	setup := func(t *testing.T) (net *shard.Network, first, second chain.Address, users []chain.Address) {
		net, first, users = deployFT(t, 3, 20, true)
		second, err := net.DeployContract(chain.AddrFromUint(999_999_999), contracts.FungibleToken, ftParams(users[0]), ftQuery())
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Compare(first[:], second[:]) > 0 {
			first, second = second, first
		}
		return net, first, second, users
	}
	absent := chain.Address{0xff, 0xff, 0xff}
	good := func(first chain.Address, users []chain.Address) *chain.StateDelta {
		return entryDelta(first, 0, "balances",
			overwriteEntry(77, users[3].Value()), addEntry(5, users[0].Value()))
	}
	payGas := func(users []chain.Address) *chain.AccountDelta {
		d := chain.NewAccountDelta()
		d.AddBalance(users[3], big.NewInt(-100))
		d.BumpNonce(users[3], 1)
		return d
	}
	cases := []struct {
		name      string
		block     func(first, second chain.Address, users []chain.Address) *shard.FinalBlock
		wantErr   func(error) bool
		conflicts int64
		overflows int64
	}{{
		name: "cross-shard overwrite conflict in the later contract",
		block: func(first, second chain.Address, users []chain.Address) *shard.FinalBlock {
			return &shard.FinalBlock{Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "balances", overwriteEntry(5, users[1].Value())),
				entryDelta(second, 1, "balances", overwriteEntry(6, users[1].Value())),
			}, Accounts: payGas(users)}
		},
		wantErr:   func(err error) bool { var e *chain.ConflictError; return errors.As(err, &e) },
		conflicts: 1,
	}, {
		name: "integer overflow in the later contract",
		block: func(first, second chain.Address, users []chain.Address) *shard.FinalBlock {
			return &shard.FinalBlock{Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "balances", overwriteEntry(5, users[1].Value())),
				{Contract: second, Shard: 1, Fields: []chain.FieldDelta{
					{Name: "total_supply", Whole: &chain.EntryDelta{Kind: chain.IntAdd, Delta: new(big.Int).Set(ast.MaxInt(ast.TyUint128))}},
				}},
			}, Accounts: payGas(users)}
		},
		wantErr:   func(err error) bool { var e *chain.OverflowError; return errors.As(err, &e) },
		overflows: 1,
	}, {
		name: "nested addition under an absent outer key, then a failing entry",
		block: func(first, second chain.Address, users []chain.Address) *shard.FinalBlock {
			return &shard.FinalBlock{Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "allowances", addEntry(9, users[7].Value(), users[8].Value())),
				entryDelta(second, 1, "allowances", addEntry(-1, users[7].Value(), users[9].Value())),
			}, Accounts: payGas(users)}
		},
		wantErr:   func(err error) bool { var e *chain.OverflowError; return errors.As(err, &e) },
		overflows: 1,
	}, {
		name: "unknown contract after two good merges",
		block: func(first, second chain.Address, users []chain.Address) *shard.FinalBlock {
			return &shard.FinalBlock{Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "balances", overwriteEntry(5, users[1].Value())),
				entryDelta(absent, 0, "balances", overwriteEntry(5, users[1].Value())),
			}, Accounts: payGas(users)}
		},
		wantErr: func(err error) bool { return errors.Is(err, shard.ErrUnknownContract) },
	}, {
		name: "account delta that would overdraw",
		block: func(first, second chain.Address, users []chain.Address) *shard.FinalBlock {
			acc := payGas(users)
			for _, u := range users {
				acc.AddBalance(u, big.NewInt(-1))
			}
			acc.AddBalance(users[11], big.NewInt(-2_000_000_000))
			return &shard.FinalBlock{Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "balances", overwriteEntry(5, users[1].Value())),
			}, Accounts: acc}
		},
		wantErr: func(err error) bool { return err != nil },
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, first, second, users := setup(t)
			pre := takeNetState(t, net)
			fb := tc.block(first, second, users)
			fb.Epoch = net.Epoch
			err := net.ApplyFinalBlock(fb)
			if err == nil || !tc.wantErr(err) {
				t.Fatalf("ApplyFinalBlock = %v, want the case's error", err)
			}
			pre.check(t, net)
			counters := net.Snapshot().Counters
			if got := counters["merge.conflicts"]; got != tc.conflicts {
				t.Errorf("merge.conflicts = %d, want %d", got, tc.conflicts)
			}
			if got := counters["merge.overflows"]; got != tc.overflows {
				t.Errorf("merge.overflows = %d, want %d", got, tc.overflows)
			}

			// The same network still commits a good block, and its trie
			// follows.
			ok := &shard.FinalBlock{Epoch: net.Epoch, Deltas: []*chain.StateDelta{
				good(first, users),
				entryDelta(second, 0, "allowances", addEntry(9, users[7].Value(), users[8].Value())),
			}, Accounts: payGas(users)}
			if err := net.ApplyFinalBlock(ok); err != nil {
				t.Fatalf("good block after the failed one: %v", err)
			}
			if inc, full := net.StateRoot(), net.RecomputeStateRoot(); inc != full || inc == pre.root {
				t.Errorf("after the good block: incremental %s, recomputed %s, before %s", inc, full, pre.root)
			}
		})
	}
}

// netState is what a failed block must leave as it found: every
// contract's state, the account table, both roots and the epoch.
type netState struct {
	contracts map[chain.Address]*eval.MemState
	accounts  *chain.Accounts
	root      string
	epoch     uint64
}

func takeNetState(t *testing.T, net *shard.Network) netState {
	t.Helper()
	pre := netState{contracts: map[chain.Address]*eval.MemState{}, accounts: net.Accounts.Copy(), root: net.StateRoot(), epoch: net.Epoch}
	for _, c := range net.Contracts.All() {
		pre.contracts[c.Addr] = c.Snapshot().Copy()
	}
	if pre.root != net.RecomputeStateRoot() {
		t.Fatal("roots disagree before the test starts")
	}
	return pre
}

// check fails t unless net is as it was when pre was taken.
func (pre netState) check(t *testing.T, net *shard.Network) {
	t.Helper()
	for a, want := range pre.contracts {
		if !net.Contracts.Get(a).Snapshot().Equal(want) {
			t.Errorf("contract %s state changed by the failed block", a)
		}
	}
	pre.accounts.Range(func(a chain.Address, want chain.Account) bool {
		if got, ok := net.Accounts.Get(a); !ok || got != want {
			t.Errorf("account %s changed by the failed block: %+v, want %+v", a, got, want)
		}
		return true
	})
	if net.Accounts.Len() != pre.accounts.Len() {
		t.Errorf("failed block changed the account count %d -> %d", pre.accounts.Len(), net.Accounts.Len())
	}
	if got := net.StateRoot(); got != pre.root {
		t.Errorf("incremental root moved: %s, was %s", got, pre.root)
	}
	if got := net.RecomputeStateRoot(); got != pre.root {
		t.Errorf("recomputed root moved: %s, was %s", got, pre.root)
	}
	if net.Epoch != pre.epoch {
		t.Errorf("epoch advanced to %d on a failed block", net.Epoch)
	}
}

// TestFailedBlockLeavesNoTrace: a FinalBlock is all or nothing across
// its two commit phases and the root check. Each block commits a good
// first phase — one that also creates an account — and then fails: in
// its DS phase, or on its state root. Afterwards the replica must be
// exactly as before the block, and must still take the same block once
// it is well formed.
func TestFailedBlockLeavesNoTrace(t *testing.T) {
	fresh := chain.AddrFromUint(4_242_424_242)
	cases := []struct {
		name  string
		spoil func(fb *shard.FinalBlock, users []chain.Address)
		want  error
	}{{
		name: "DS phase overdraws an account",
		spoil: func(fb *shard.FinalBlock, users []chain.Address) {
			fb.DSAccounts.AddBalance(users[11], big.NewInt(-2_000_000_000))
		},
	}, {
		name:  "wrong state root",
		spoil: func(fb *shard.FinalBlock, _ []chain.Address) { fb.StateRoot = strings.Repeat("ab", 32) },
		want:  shard.ErrStateDivergence,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, c, users := deployFT(t, 3, 20, true)
			block := func() *shard.FinalBlock {
				acc := chain.NewAccountDelta()
				acc.AddBalance(users[3], big.NewInt(-100))
				acc.AddBalance(fresh, big.NewInt(100))
				acc.BumpNonce(users[3], 1)
				ds := chain.NewAccountDelta()
				ds.AddBalance(users[4], big.NewInt(-50))
				ds.BumpNonce(users[4], 1)
				return &shard.FinalBlock{
					Epoch:      net.Epoch,
					Deltas:     []*chain.StateDelta{entryDelta(c, 0, "balances", overwriteEntry(77, users[3].Value()))},
					Accounts:   acc,
					DSDeltas:   []*chain.StateDelta{entryDelta(c, dispatch.DS, "allowances", addEntry(9, users[7].Value(), users[8].Value()))},
					DSAccounts: ds,
				}
			}
			pre := takeNetState(t, net)
			bad := block()
			tc.spoil(bad, users)
			err := net.ApplyFinalBlock(bad)
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("ApplyFinalBlock = %v, want a failure (%v)", err, tc.want)
			}
			pre.check(t, net)
			if _, ok := net.Accounts.Get(fresh); ok {
				t.Error("the failed block's new account survived it")
			}
			if err := net.ApplyFinalBlock(block()); err != nil {
				t.Fatalf("the good block after the failed one: %v", err)
			}
			if inc, full := net.StateRoot(), net.RecomputeStateRoot(); inc != full || inc == pre.root {
				t.Errorf("after the good block: incremental %s, recomputed %s, before %s", inc, full, pre.root)
			}
		})
	}
}

// TestFailedFinalizeLeavesNoTrace is the committee's side of the same
// rule. A forged MicroBlock credits the crowdfunding contract's account
// to one short of 2^128; that merges, and the DS committee's own run
// then accepts a donation into the account, so its commit — the
// block's second phase — overflows. FinalizeEpoch must fail with the
// first phase undone too.
func TestFailedFinalizeLeavesNoTrace(t *testing.T) {
	w := workload.CFDonate()
	w.Users = 40
	env, err := workload.Provision(w, false, shard.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	net := env.Net
	for i := 0; i < 40; i++ {
		net.Submit(w.Next(env))
	}
	run := net.BeginEpoch()
	if len(run.DSQueue()) == 0 {
		t.Fatal("no donation routed to the DS committee")
	}
	blocks := make([]*shard.MicroBlock, len(run.Queues()))
	for s, q := range run.Queues() {
		if blocks[s], err = net.ExecuteShard(s, q); err != nil {
			t.Fatal(err)
		}
	}
	acc, _ := net.Accounts.Get(env.Contract)
	forged := new(big.Int).Lsh(big.NewInt(1), 128)
	forged.Sub(forged, big.NewInt(1))
	forged.Sub(forged, acc.Balance.Big(new(big.Int)))
	for _, mb := range blocks {
		if d := mb.Accounts.BalanceDeltas[env.Contract]; d != nil {
			forged.Sub(forged, d)
		}
	}
	blocks[0].Accounts.AddBalance(env.Contract, forged)

	pre := takeNetState(t, net)
	if _, _, err := net.FinalizeEpoch(run, blocks); !errors.Is(err, chain.ErrBalanceOverflow) || !strings.Contains(err.Error(), "DS run") {
		t.Fatalf("FinalizeEpoch = %v, want the DS run's commit to overflow", err)
	}
	pre.check(t, net)
	if _, err := net.RunEpoch(); err != nil {
		t.Fatalf("the epoch after the failed one: %v", err)
	}
	if inc, full := net.StateRoot(), net.RecomputeStateRoot(); inc != full {
		t.Errorf("after the next epoch: incremental %s, recomputed %s", inc, full)
	}
}

// TestCommitCostFollowsTheDelta: committing one fixed 500-entry delta
// and reading the root allocates exactly as much over a 100k-entry map
// as over a 1k-entry one. Allocation counts are exact where timings are
// not: any per-commit work proportional to the state — a copy of it, a
// child map or an edge list per rehashed node — shows as a difference.
func TestCommitCostFollowsTheDelta(t *testing.T) {
	const entries = 500
	allocs := func(holders int) float64 {
		net, c, _ := deployFT(t, 3, entries, true)
		balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
		for i := 0; i < holders; i++ {
			balances.Set(chain.AddrFromUint(uint64(i+1)).Value(), u128(1000))
		}
		con := net.Contracts.Get(c)
		st := eval.NewMemState(con.Checked.FieldTypes)
		maps.Copy(st.Fields, con.Snapshot().Fields)
		st.Fields["balances"] = balances
		con.ReplaceState(st)
		net.RebuildStateRoots()

		// Half additions, half overwrites, all on holders both sizes have,
		// plus the senders' gas and nonces.
		var es []chain.EntryDelta
		acc := chain.NewAccountDelta()
		for i := 0; i < entries; i++ {
			u := chain.AddrFromUint(uint64(i + 1))
			if i%2 == 0 {
				es = append(es, addEntry(3, u.Value()))
			} else {
				es = append(es, overwriteEntry(uint64(2000+i), u.Value()))
			}
			acc.AddBalance(u, big.NewInt(-7))
			acc.BumpNonce(u, 1)
		}
		fb := &shard.FinalBlock{Deltas: []*chain.StateDelta{entryDelta(c, 0, "balances", es...)}, Accounts: acc}
		var root string
		n := testing.AllocsPerRun(5, func() {
			fb.Epoch = net.Epoch
			if err := net.ApplyFinalBlock(fb); err != nil {
				t.Fatal(err)
			}
			root = net.StateRoot()
		})
		if full := net.RecomputeStateRoot(); root != full {
			t.Fatalf("%d holders: incremental root %s, recomputed %s", holders, root, full)
		}
		return n
	}
	small, big := allocs(1_000), allocs(100_000)
	if small != big {
		t.Errorf("commit + root of one %d-entry delta allocates %.0f times over 1k holders and %.0f over 100k: cost follows the state", entries, small, big)
	}
	t.Logf("%.0f allocations per commit + root at both sizes (%.1f per delta entry)", small, small/entries)
}

// ledgerSrc emits one of its map fields whole in an event.
const ledgerSrc = `
scilla_version 0

library Ledger

contract Ledger (self : ByStr20)

field entries : Map ByStr20 Uint128 = Emp ByStr20 Uint128

transition Put (v : Uint128)
  entries[_sender] := v
end

transition Dump ()
  all <- entries;
  e = {_eventname : "Dump"; all : all};
  event e
end
`

// TestReceiptsOwnTheMapsTheyShow: an event carrying a whole map field
// must keep showing the map as it was when the transaction ran, though
// canonical state is merged in place in later epochs and a transition
// that only reads a map is handed the canonical map itself.
func TestReceiptsOwnTheMapsTheyShow(t *testing.T) {
	recs := receiptBook{}
	net := shard.NewNetwork(shard.WithShards(3))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	ledger, err := net.DeployContract(deployer, ledgerSrc, map[string]value.Value{
		"self": chain.ContractAddress(deployer, 1).Value(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := chain.AddrFromUint(1), chain.AddrFromUint(2)
	net.CreateUser(a, 1_000_000)
	net.CreateUser(b, 1_000_000)
	epoch := func(txs ...*chain.Tx) []uint64 {
		var ids []uint64
		for _, tx := range txs {
			ids = append(ids, net.Submit(tx))
		}
		if _, err := recs.add(net.RunEpoch()); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	epoch(probeCall(a, ledger, 1, 0, "Put", map[string]value.Value{"v": u128(1)}))
	dump := epoch(probeCall(a, ledger, 2, 0, "Dump", nil))[0]
	epoch(probeCall(b, ledger, 1, 0, "Put", map[string]value.Value{"v": u128(2)}),
		probeCall(a, ledger, 3, 0, "Put", map[string]value.Value{"v": u128(9)}))

	rec := recs[dump]
	if rec == nil || !rec.Success || len(rec.Events) != 1 {
		t.Fatalf("Dump receipt: %+v", rec)
	}
	shown, ok := rec.Events[0].Entries["all"].(*value.Map)
	if !ok {
		t.Fatalf("event payload is %T, want a map", rec.Events[0].Entries["all"])
	}
	if v, found := shown.Get(a.Value()); shown.Len() != 1 || !found || !value.Equal(v, u128(1)) {
		t.Errorf("the Dump event now shows %s; when it ran the map was {%s => 1}", shown, a)
	}
}

// TestNetworkGaugesRootBytes: sealing an epoch publishes the bytes the
// root trie holds beside its leaf count — at least a node record per
// leaf, and for a 2000-holder token well under a megabyte.
func TestNetworkGaugesRootBytes(t *testing.T) {
	reg := obs.NewRegistry()
	net, c, users := deployFT(t, 3, 2000, true, shard.WithRegistry(reg))
	net.Submit(transferTx(users[0], users[1], c, 1, 5))
	run := net.BeginEpoch()
	run.CollectFinalBlock()
	blocks := make([]*shard.MicroBlock, len(run.Queues()))
	for s, q := range run.Queues() {
		var err error
		if blocks[s], err = net.ExecuteShard(s, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := net.FinalizeEpoch(run, blocks); err != nil {
		t.Fatal(err)
	}
	leaves, bytes := reg.Gauge("state.root_leaves").Value(), reg.Gauge("state.root_bytes").Value()
	t.Logf("%d leaves in %d bytes", leaves, bytes)
	if leaves < 2000 || bytes < leaves*80 || bytes > 1<<20 {
		t.Errorf("root gauges after an epoch: %d leaves in %d bytes", leaves, bytes)
	}
}
