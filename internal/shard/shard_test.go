package shard_test

import (
	"math/big"
	"math/rand"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

func u128(v uint64) value.Int { return value.Uint128(v) }

// ftQuery is the paper's FungibleToken sharding selection (Sec. 5.2).
func ftQuery() *signature.Query {
	return &signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances", "allowances"},
	}
}

func ftParams(owner chain.Address) map[string]value.Value {
	return map[string]value.Value{
		"contract_owner": owner.Value(),
		"token_name":     value.Str{S: "Test"},
		"token_symbol":   value.Str{S: "TST"},
		"decimals":       value.Uint32V(6),
		"init_supply":    u128(1_000_000),
	}
}

// deployFT builds a network with nUsers funded users and a deployed
// FungibleToken (owner = user 0, or the dedicated deployer account if
// there are no users); sharded controls signature presence; extra
// options are passed through to NewNetwork. Deployment is done by a
// separate account so user nonces start fresh at 1.
func deployFT(t testing.TB, numShards, nUsers int, sharded bool, opts ...shard.Option) (*shard.Network, chain.Address, []chain.Address) {
	t.Helper()
	net := shard.NewNetwork(append([]shard.Option{shard.WithShards(numShards)}, opts...)...)
	deployer := chain.AddrFromUint(999_999_999)
	net.CreateUser(deployer, 1_000_000_000)
	users := make([]chain.Address, nUsers)
	for i := range users {
		users[i] = chain.AddrFromUint(uint64(i + 1))
		net.CreateUser(users[i], 1_000_000_000)
	}
	owner := deployer
	if nUsers > 0 {
		owner = users[0]
	}
	var q *signature.Query
	if sharded {
		q = ftQuery()
	}
	addr, err := net.DeployContract(deployer, contracts.FungibleToken, ftParams(owner), q)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return net, addr, users
}

func transferTx(from, to, contract chain.Address, nonce uint64, amount uint64) *chain.Tx {
	return &chain.Tx{
		Kind:       chain.TxCall,
		From:       from,
		To:         contract,
		Nonce:      nonce,
		Amount:     big.NewInt(0),
		GasLimit:   10_000,
		GasPrice:   1,
		Transition: "Transfer",
		Args: map[string]value.Value{
			"to":     to.Value(),
			"amount": u128(amount),
		},
	}
}

func balanceOf(t testing.TB, net *shard.Network, contract, user chain.Address) uint64 {
	t.Helper()
	c := net.Contracts.Get(contract)
	v, ok, err := eval.GetAt(c.Snapshot(), "balances", []value.Value{user.Value()})
	if err != nil {
		t.Fatalf("MapGet: %v", err)
	}
	if !ok {
		return 0
	}
	return v.(value.Int).V.Uint64()
}

// receiptBook indexes by transaction id the receipts of the epochs a
// test ran. A network keeps none of them (a lookup node serves
// receipts), so a test gathers them from what each epoch returns; a
// later epoch's receipt for an id replaces an earlier one.
type receiptBook map[uint64]*chain.Receipt

// add indexes the receipts of an epoch's statistics and passes both
// results through, so it wraps a RunEpoch call.
func (b receiptBook) add(stats *shard.EpochStats, err error) (*shard.EpochStats, error) {
	if stats != nil {
		for _, r := range stats.Receipts {
			b[r.TxID] = r
		}
	}
	return stats, err
}

func TestEndToEndTransfer(t *testing.T) {
	net, contract, users := deployFT(t, 3, 4, true)
	owner := users[0]

	recs := receiptBook{}
	id := net.Submit(transferTx(owner, users[1], contract, 1, 500))
	stats, err := recs.add(net.RunEpoch())
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if stats.Committed != 1 {
		t.Fatalf("committed = %d, want 1 (stats %+v)", stats.Committed, stats)
	}
	rec := recs[id]
	if rec == nil || !rec.Success {
		t.Fatalf("receipt = %+v", rec)
	}
	if got := balanceOf(t, net, contract, users[1]); got != 500 {
		t.Errorf("recipient balance = %d, want 500", got)
	}
	if got := balanceOf(t, net, contract, owner); got != 1_000_000-500 {
		t.Errorf("owner balance = %d, want %d", got, 1_000_000-500)
	}
}

// TestShardedMatchesSequential is the paper's correctness property:
// executing a transaction batch through the sharded pipeline produces
// the same contract state as a 1-shard (fully sequential) execution.
func TestShardedMatchesSequential(t *testing.T) {
	const nUsers = 20
	const nTxs = 200
	rng := rand.New(rand.NewSource(42))

	type spec struct {
		from, to int
		amount   uint64
	}
	specs := make([]spec, nTxs)
	for i := range specs {
		from := rng.Intn(nUsers)
		to := rng.Intn(nUsers)
		for to == from {
			to = rng.Intn(nUsers)
		}
		specs[i] = spec{from: from, to: to, amount: uint64(rng.Intn(50) + 1)}
	}

	run := func(numShards int) map[chain.Address]uint64 {
		net, contract, users := deployFT(t, numShards, nUsers, true)
		owner := users[0]
		// Seed every user with tokens so transfers do not depend on
		// ordering for success.
		nonce := uint64(1)
		for _, u := range users[1:] {
			net.Submit(&chain.Tx{
				Kind: chain.TxCall, From: owner, To: contract, Nonce: nonce,
				Amount: big.NewInt(0), GasLimit: 10_000, GasPrice: 1,
				Transition: "Mint",
				Args: map[string]value.Value{
					"recipient": u.Value(), "amount": u128(100_000),
				},
			})
			nonce++
		}
		if _, err := net.RunEpoch(); err != nil {
			t.Fatalf("seed epoch: %v", err)
		}
		nonces := make([]uint64, nUsers)
		nonces[0] = nonce - 1
		for _, s := range specs {
			nonces[s.from]++
			net.Submit(transferTx(users[s.from], users[s.to], contract, nonces[s.from], s.amount))
		}
		for net.MempoolSize() > 0 {
			if _, err := net.RunEpoch(); err != nil {
				t.Fatalf("epoch: %v", err)
			}
		}
		out := make(map[chain.Address]uint64, nUsers)
		for _, u := range users {
			out[u] = balanceOf(t, net, contract, u)
		}
		return out
	}

	sequential := run(1)
	for _, shards := range []int{2, 3, 5} {
		got := run(shards)
		for addr, want := range sequential {
			if got[addr] != want {
				t.Errorf("%d shards: balance[%s] = %d, want %d", shards, addr, got[addr], want)
			}
		}
	}
}

// TestAliasedTransferGoesToDS: a self-transfer violates NoAliases and
// must be routed to the DS committee, still executing correctly.
func TestAliasedTransferGoesToDS(t *testing.T) {
	recs := receiptBook{}
	net, contract, users := deployFT(t, 3, 2, true)
	owner := users[0]
	id := net.Submit(transferTx(owner, owner, contract, 1, 100))
	stats, err := recs.add(net.RunEpoch())
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[id]
	if rec == nil || !rec.Success {
		t.Fatalf("aliased transfer failed: %+v", rec)
	}
	if rec.Shard != -1 {
		t.Errorf("aliased transfer executed in shard %d, want DS (-1)", rec.Shard)
	}
	if stats.DSCommitted != 1 {
		t.Errorf("DSCommitted = %d, want 1", stats.DSCommitted)
	}
	// Self-transfer must leave the balance unchanged.
	if got := balanceOf(t, net, contract, owner); got != 1_000_000 {
		t.Errorf("owner balance = %d, want unchanged 1000000", got)
	}
}

// TestUnselectedTransitionGoesToDS: transitions outside the sharding
// signature are DS work.
func TestUnselectedTransitionGoesToDS(t *testing.T) {
	recs := receiptBook{}
	net, contract, users := deployFT(t, 3, 2, true)
	id := net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: users[0], To: contract, Nonce: 1,
		Amount: big.NewInt(0), GasLimit: 10_000, GasPrice: 1,
		Transition: "Approve",
		Args: map[string]value.Value{
			"spender": users[1].Value(), "amount": u128(10),
		},
	})
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	rec := recs[id]
	if rec == nil || !rec.Success || rec.Shard != -1 {
		t.Fatalf("Approve receipt = %+v, want DS success", rec)
	}
}

// TestNonceReplayRejected: replaying a nonce must be rejected.
func TestNonceReplayRejected(t *testing.T) {
	recs := receiptBook{}
	net, contract, users := deployFT(t, 3, 3, true)
	owner := users[0]
	id1 := net.Submit(transferTx(owner, users[1], contract, 1, 10))
	id2 := net.Submit(transferTx(owner, users[2], contract, 1, 10)) // same nonce
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	r1, r2 := recs[id1], recs[id2]
	if r1 == nil || !r1.Success {
		t.Errorf("first use of nonce must succeed: %+v", r1)
	}
	if r2 == nil || r2.Success {
		t.Errorf("nonce replay must be rejected: %+v", r2)
	}
	// A stale nonce in a later epoch is also rejected.
	id3 := net.Submit(transferTx(owner, users[1], contract, 1, 10))
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	if r3 := recs[id3]; r3 == nil || r3.Success {
		t.Errorf("stale nonce must be rejected: %+v", r3)
	}
}

// TestRelaxedNonceGaps: nonces with gaps are processed (Sec. 4.2.1).
func TestRelaxedNonceGaps(t *testing.T) {
	recs := receiptBook{}
	net, contract, users := deployFT(t, 3, 3, true)
	owner := users[0]
	idA := net.Submit(transferTx(owner, users[1], contract, 2, 10)) // gap: nonce 1 unused
	idB := net.Submit(transferTx(owner, users[2], contract, 5, 10))
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	if r := recs[idA]; r == nil || !r.Success {
		t.Errorf("gapped nonce 2 must be accepted: %+v", r)
	}
	if r := recs[idB]; r == nil || !r.Success {
		t.Errorf("gapped nonce 5 must be accepted: %+v", r)
	}
}

// TestBaselineContractRouting: without a signature, same-shard calls
// stay in-shard and cross-shard calls go to DS.
func TestBaselineContractRouting(t *testing.T) {
	recs := receiptBook{}
	net, contract, _ := deployFT(t, 3, 0, false)
	_ = contract
	contractShard := chain.ShardOf(contract, 3)

	// Find a user in the contract's shard and one outside it.
	var inUser, outUser chain.Address
	for i := uint64(100); ; i++ {
		a := chain.AddrFromUint(i)
		if chain.ShardOf(a, 3) == contractShard && inUser == (chain.Address{}) {
			inUser = a
		}
		if chain.ShardOf(a, 3) != contractShard && outUser == (chain.Address{}) {
			outUser = a
		}
		if inUser != (chain.Address{}) && outUser != (chain.Address{}) {
			break
		}
	}
	net.CreateUser(inUser, 1_000_000)
	net.CreateUser(outUser, 1_000_000)

	idIn := net.Submit(transferTx(inUser, outUser, contract, 1, 0))
	idOut := net.Submit(transferTx(outUser, inUser, contract, 1, 0))
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	rIn, rOut := recs[idIn], recs[idOut]
	if rIn == nil || rIn.Shard != contractShard {
		t.Errorf("in-shard call routed to %+v, want shard %d", rIn, contractShard)
	}
	if rOut == nil || rOut.Shard != -1 {
		t.Errorf("cross-shard call routed to %+v, want DS", rOut)
	}
}

// TestMintScalesAcrossShards: Mint has no ownership constraints, so a
// single-sender mint workload spreads across all shards (Sec. 5.2.1,
// the "NFT mint" observation applied to FT).
func TestMintScalesAcrossShards(t *testing.T) {
	net, contract, users := deployFT(t, 3, 1, true)
	owner := users[0]
	for i := 0; i < 60; i++ {
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: owner, To: contract, Nonce: uint64(i + 1),
			Amount: big.NewInt(0), GasLimit: 10_000, GasPrice: 1,
			Transition: "Mint",
			Args: map[string]value.Value{
				"recipient": chain.AddrFromUint(uint64(1000 + i)).Value(),
				"amount":    u128(5),
			},
		})
	}
	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 60 {
		t.Fatalf("committed = %d (failed %d rejected %d), want 60", stats.Committed, stats.Failed, stats.Rejected)
	}
	for s, n := range stats.PerShard {
		if n == 0 {
			t.Errorf("shard %d processed no mints; want balanced spread %v", s, stats.PerShard)
		}
	}
	// total_supply must reflect every mint exactly once (IntMerge).
	c := net.Contracts.Get(contract)
	ts, err := c.Snapshot().LoadField("total_supply")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.(value.Int).V.Uint64(); got != 1_000_000+60*5 {
		t.Errorf("total_supply = %d, want %d", got, 1_000_000+60*5)
	}
}

// TestSingleSourceTransfersSerialise: all transfers from one sender
// own the same balance entry and land in one shard ("FT fund").
func TestSingleSourceTransfersSerialise(t *testing.T) {
	net, contract, users := deployFT(t, 3, 1, true)
	owner := users[0]
	for i := 0; i < 30; i++ {
		net.Submit(transferTx(owner, chain.AddrFromUint(uint64(2000+i)), contract, uint64(i+1), 1))
	}
	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, n := range stats.PerShard {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("single-source transfers spread over %d shards, want 1 (%v)", nonEmpty, stats.PerShard)
	}
}

var _ = ast.TyUint128
