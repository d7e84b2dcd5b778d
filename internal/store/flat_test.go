package store

import (
	"math/big"
	"runtime/debug"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
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
	fields := map[string]value.Value{}
	for name, v := range net.Contracts.Get(c).Snapshot().Fields {
		fields[name] = v
	}
	balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
	for i := 0; i < holders; i++ {
		u := chain.AddrFromUint(uint64(i + 1))
		balances.Set(u.Value(), value.Uint128(1000))
		net.Accounts.Create(u, 1<<50, false)
	}
	fields["balances"] = balances
	if err := net.RestoreContractState(c, fields); err != nil {
		t.Fatal(err)
	}
	net.RebuildStateRoots()

	fd := &chain.FieldDelta{Entries: make(map[string]chain.EntryDelta, entries)}
	acc := chain.NewAccountDelta()
	for i := 0; i < entries; i++ {
		u := chain.AddrFromUint(uint64(i + 1))
		keys := []value.Value{u.Value()}
		fd.Entries[chain.Keypath(keys)] = chain.EntryDelta{Kind: chain.IntAdd, Keys: keys, Delta: big.NewInt(3)}
		acc.AddBalance(u, big.NewInt(-7))
		acc.BumpNonce(u, 1)
	}
	return net, &shard.FinalBlock{
		Epoch:    net.Epoch,
		Deltas:   []*chain.StateDelta{{Contract: c, Fields: map[string]*chain.FieldDelta{"balances": fd}}},
		Accounts: acc,
	}
}

// TestSnapshotCostFollowsTheDelta: a snapshot boundary after one fixed
// 500-entry block writes exactly as many bytes, and allocates exactly as
// much, over 100k holders as over 1k. Any boundary work proportional to
// the state — ranging the accounts, sorting them, encoding a contract's
// fields — shows as a difference; the full dump this replaces differed
// by two orders of magnitude.
func TestSnapshotCostFollowsTheDelta(t *testing.T) {
	const entries = 500
	boundary := func(holders int) (allocs float64, bytes, records int64) {
		net, fb := holdersNetwork(t, holders, entries)
		cp := shard.Checkpoint{Epoch: fb.Epoch + 1, BlockNumber: fb.Epoch + 1}
		// A collection empties the sync.Pools under fmt and os, and the
		// small state's heap collects more often: without this the count
		// differs by the two or three objects a refilled pool allocates.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// Every run is the first boundary of a fresh directory, so the
		// chain has the same room at both sizes.
		allocs = testing.AllocsPerRun(3, func() {
			st := openStore(t, t.TempDir(), WithSnapshotEvery(1))
			if err := st.EpochCommitted(net, fb, cp); err != nil {
				t.Fatal(err)
			}
			if full := st.snapshotsFull.Value(); full != 0 {
				t.Fatalf("%d holders: the boundary wrote a full file", holders)
			}
			bytes, records = st.snapshotBytes.Value(), st.snapshotRecords.Value()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, bytes, records
	}
	smallAllocs, smallBytes, smallRecords := boundary(1_000)
	bigAllocs, bigBytes, bigRecords := boundary(100_000)
	// Under the race detector sync.Pool drops a quarter of what is put
	// back, at random, so fmt's and os's pools make the count vary by an
	// object or two from run to run.
	if smallAllocs != bigAllocs && !raceEnabled {
		t.Errorf("a boundary after one %d-entry block allocates %.0f times over 1k holders and %.0f over 100k: cost follows the state", entries, smallAllocs, bigAllocs)
	}
	if smallBytes != bigBytes || smallRecords != bigRecords {
		t.Errorf("a boundary after one %d-entry block writes %d bytes (%d records) over 1k holders and %d (%d) over 100k", entries, smallBytes, smallRecords, bigBytes, bigRecords)
	}
	t.Logf("%.0f allocations, %d bytes, %d records per boundary at both sizes", smallAllocs, smallBytes, smallRecords)
}
