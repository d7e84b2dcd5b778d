package shard_test

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// entryDelta builds a one-field StateDelta for contract c out of
// (keys, EntryDelta) pairs, keyed the way ExtractDelta keys them.
func entryDelta(c chain.Address, shardID int, field string, entries ...chain.EntryDelta) *chain.StateDelta {
	fd := &chain.FieldDelta{Entries: make(map[string]chain.EntryDelta, len(entries))}
	for _, e := range entries {
		fd.Entries[chain.Keypath(e.Keys)] = e
	}
	return &chain.StateDelta{Contract: c, Shard: shardID, Fields: map[string]*chain.FieldDelta{field: fd}}
}

func overwriteEntry(v uint64, keys ...value.Value) chain.EntryDelta {
	return chain.EntryDelta{Kind: chain.Overwrite, Keys: keys, Value: u128(v)}
}

func addEntry(d int64, keys ...value.Value) chain.EntryDelta {
	return chain.EntryDelta{Kind: chain.IntAdd, Keys: keys, Delta: big.NewInt(d)}
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
				{Contract: second, Shard: 1, Fields: map[string]*chain.FieldDelta{
					"total_supply": {Whole: &chain.EntryDelta{Kind: chain.IntAdd, Delta: new(big.Int).Set(ast.MaxInt(ast.TyUint128))}},
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
			pre := map[chain.Address]*eval.MemState{}
			for _, a := range []chain.Address{first, second} {
				pre[a] = net.Contracts.Get(a).Snapshot().Copy()
			}
			preAccounts := net.Accounts.Copy()
			preRoot, preEpoch := net.StateRoot(), net.Epoch
			if preRoot != net.RecomputeStateRoot() {
				t.Fatal("roots disagree before the test starts")
			}

			fb := tc.block(first, second, users)
			fb.Epoch = net.Epoch
			err := net.ApplyFinalBlock(fb)
			if err == nil || !tc.wantErr(err) {
				t.Fatalf("ApplyFinalBlock = %v, want the case's error", err)
			}
			for a, want := range pre {
				if !net.Contracts.Get(a).Snapshot().Equal(want) {
					t.Errorf("contract %s state changed by the failed phase", a)
				}
			}
			preAccounts.Range(func(a chain.Address, want chain.Account) bool {
				if got, ok := net.Accounts.Get(a); !ok || got != want {
					t.Errorf("account %s changed by the failed phase: %+v, want %+v", a, got, want)
				}
				return true
			})
			if net.Accounts.Len() != preAccounts.Len() {
				t.Errorf("failed phase changed the account count %d -> %d", preAccounts.Len(), net.Accounts.Len())
			}
			if got := net.StateRoot(); got != preRoot {
				t.Errorf("incremental root moved: %s, was %s", got, preRoot)
			}
			if got := net.RecomputeStateRoot(); got != preRoot {
				t.Errorf("recomputed root moved: %s, was %s", got, preRoot)
			}
			if net.Epoch != preEpoch {
				t.Errorf("epoch advanced to %d on a failed block", net.Epoch)
			}
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
			if inc, full := net.StateRoot(), net.RecomputeStateRoot(); inc != full || inc == preRoot {
				t.Errorf("after the good block: incremental %s, recomputed %s, before %s", inc, full, preRoot)
			}
		})
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
		fields := map[string]value.Value{}
		for name, v := range net.Contracts.Get(c).Snapshot().Fields {
			fields[name] = v
		}
		balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
		for i := 0; i < holders; i++ {
			balances.Set(chain.AddrFromUint(uint64(i+1)).Value(), u128(1000))
		}
		fields["balances"] = balances
		if err := net.RestoreContractState(c, fields); err != nil {
			t.Fatal(err)
		}
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
