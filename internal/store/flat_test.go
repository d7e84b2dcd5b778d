package store

import (
	"maps"
	"math/big"
	"runtime/debug"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// holdersNetwork is a token contract with a balance and an account for
// each of holders users, and one block whose delta writes the balances
// and accounts of `entries` of them — the same ones at every size.
func holdersNetwork(t *testing.T, holders, entries int) (*shard.Network, *shard.FinalBlock) {
	t.Helper()
	net := shard.NewNetwork(shard.WithShards(3))
	deployer := chain.AddrFromUint(999_999_999)
	net.CreateUser(deployer, 1<<60)
	c, err := net.DeployContract(deployer, contracts.FungibleToken, map[string]value.Value{
		"contract_owner": deployer.Value(), "token_name": value.Str{S: "B"}, "token_symbol": value.Str{S: "B"},
		"decimals": value.Uint32V(6), "init_supply": value.Uint128(0),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
	for i := 0; i < holders; i++ {
		u := chain.AddrFromUint(uint64(i + 1))
		balances.Set(u.Value(), value.Uint128(1000))
		net.Accounts.Create(u, 1<<50, false)
	}
	con := net.Contracts.Get(c)
	st := eval.NewMemState(con.Checked.FieldTypes)
	maps.Copy(st.Fields, con.Snapshot().Fields)
	st.Fields["balances"] = balances
	con.ReplaceState(st)
	net.RebuildStateRoots()

	fd := chain.FieldDelta{Name: "balances", Entries: make([]chain.EntryDelta, 0, entries)}
	acc := chain.NewAccountDelta()
	for i := 0; i < entries; i++ {
		u := chain.AddrFromUint(uint64(i + 1))
		keys := []value.Value{u.Value()}
		fd.Entries = append(fd.Entries, chain.EntryDelta{Kind: chain.IntAdd, Keypath: chain.Keypath(keys), Keys: keys, Delta: big.NewInt(3)})
		acc.AddBalance(u, big.NewInt(-7))
		acc.BumpNonce(u, 1)
	}
	chain.SortEntries(fd.Entries)
	return net, &shard.FinalBlock{
		Epoch:    net.Epoch,
		Deltas:   []*chain.StateDelta{{Contract: c, Fields: []chain.FieldDelta{fd}}},
		Accounts: acc,
	}
}

// TestSnapshotCostFollowsTheDelta: a snapshot boundary after one fixed
// 500-entry block, below the fold at 1k holders as at 100k, writes no
// snapshot file, and journals exactly as many bytes with exactly as
// many allocations at both sizes. Any boundary work proportional to the
// state — ranging the accounts, sorting them, encoding a contract's
// fields — shows as a difference; the full dump of every boundary once
// differed by two orders of magnitude.
func TestSnapshotCostFollowsTheDelta(t *testing.T) {
	const entries = 500
	boundary := func(holders int) (allocs float64, bytes, cost int64) {
		net, fb := holdersNetwork(t, holders, entries)
		cp := shard.Checkpoint{Epoch: fb.Epoch + 1, BlockNumber: fb.Epoch + 1}
		// A collection empties the sync.Pools under fmt and os, and the
		// small state's heap collects more often: without this the count
		// differs by the two or three objects a refilled pool allocates.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// Every run is the first boundary of a fresh directory, so the
		// journal is the block alone at both sizes.
		allocs = testing.AllocsPerRun(3, func() {
			st := openStore(t, t.TempDir(), WithSnapshotEvery(1))
			if err := st.EpochCommitted(net, fb, cp); err != nil {
				t.Fatal(err)
			}
			if n := st.snapshots.Value(); n != 0 {
				t.Fatalf("%d holders: the boundary wrote a snapshot file at journal cost %d, %d leaves", holders, st.journalCost, net.StateLeaves())
			}
			bytes, cost = st.journalBytes.Value(), int64(st.journalCost)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, bytes, cost
	}
	smallAllocs, smallBytes, smallCost := boundary(1_000)
	bigAllocs, bigBytes, bigCost := boundary(100_000)
	// Under the race detector sync.Pool drops a quarter of what is put
	// back, at random, so fmt's and os's pools make the count vary by an
	// object or two from run to run.
	if smallAllocs != bigAllocs && !raceEnabled {
		t.Errorf("a boundary after one %d-entry block allocates %.0f times over 1k holders and %.0f over 100k: cost follows the state", entries, smallAllocs, bigAllocs)
	}
	if smallBytes != bigBytes || smallCost != bigCost {
		t.Errorf("a boundary after one %d-entry block journals %d bytes (cost %d) over 1k holders and %d (%d) over 100k", entries, smallBytes, smallCost, bigBytes, bigCost)
	}
	t.Logf("%.0f allocations, %d journal bytes, journal cost %d per boundary at both sizes", smallAllocs, smallBytes, smallCost)
}
