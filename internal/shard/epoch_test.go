package shard_test

import (
	"math/big"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// TestGasLimitDefersTransactions: transactions beyond the shard gas
// limit are deferred to the next epoch, not dropped.
func TestGasLimitDefersTransactions(t *testing.T) {
	// A tiny gas limit: roughly 2 transfers per epoch.
	net := shard.NewNetwork(shard.WithGasLimits(100, 100))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	owner := chain.AddrFromUint(1)
	net.CreateUser(owner, 1<<40)
	contract, err := net.DeployContract(deployer, contracts.FungibleToken, ftParams(owner), ftQuery())
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		net.Submit(transferTx(owner, chain.AddrFromUint(uint64(100+i)), contract, uint64(i+1), 1))
	}
	committed := 0
	epochs := 0
	for net.MempoolSize() > 0 {
		stats, err := net.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		committed += stats.Committed
		epochs++
		if epochs > 20 {
			t.Fatal("gas-limited epochs never drained the Submit queue")
		}
	}
	if committed != total {
		t.Errorf("committed %d of %d across %d epochs", committed, total, epochs)
	}
	if epochs < 3 {
		t.Errorf("expected the gas limit to force multiple epochs, got %d", epochs)
	}
}

// TestDeferredTxsRequeue: gas-deferred transactions must land back in
// the Submit queue — visible through MempoolSize — and commit in a
// later epoch. Regression for silently dropping deferred work.
func TestDeferredTxsRequeue(t *testing.T) {
	recs := receiptBook{}
	net := shard.NewNetwork(shard.WithGasLimits(100, 100))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	owner := chain.AddrFromUint(1)
	net.CreateUser(owner, 1<<40)
	contract, err := net.DeployContract(deployer, contracts.FungibleToken, ftParams(owner), ftQuery())
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for n := uint64(1); n <= 5; n++ {
		ids = append(ids, net.Submit(transferTx(owner, chain.AddrFromUint(100+n), contract, n, 1)))
	}
	stats, err := recs.add(net.RunEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deferred == 0 {
		t.Fatal("gas limit deferred nothing; the regression is not exercised")
	}
	if got := net.MempoolSize(); got != stats.Deferred {
		t.Errorf("Submit queue holds %d txs, want the %d deferred", got, stats.Deferred)
	}
	for epochs := 0; net.MempoolSize() > 0; epochs++ {
		if _, err := recs.add(net.RunEpoch()); err != nil {
			t.Fatal(err)
		}
		if epochs > 20 {
			t.Fatal("deferred transactions never drained")
		}
	}
	for _, id := range ids {
		if rec := recs[id]; rec == nil || !rec.Success {
			t.Errorf("tx %d: receipt %+v, want committed", id, rec)
		}
	}
}

// TestInterContractCallInDS: a contract-to-contract message chain is
// executed by the DS committee.
func TestInterContractCallInDS(t *testing.T) {
	recs := receiptBook{}
	const routerSrc = `
scilla_version 0

library Router

let one_msg =
  fun (m : Message) =>
    let nil = Nil {Message} in
    Cons {Message} m nil

contract Router
(token : ByStr20)

field forwarded : Uint128 = Uint128 0

transition Forward (to : ByStr20, amount : Uint128)
  zero = Uint128 0;
  m = {_tag : "Transfer"; _recipient : token; _amount : zero; to : to; amount : amount};
  msgs = one_msg m;
  send msgs;
  f <- forwarded;
  one = Uint128 1;
  nf = builtin add f one;
  forwarded := nf
end
`
	net := shard.NewNetwork(shard.WithShards(3))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	owner := chain.AddrFromUint(1)
	net.CreateUser(owner, 1<<40)
	token, err := net.DeployContract(deployer, contracts.FungibleToken, ftParams(owner), nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := net.DeployContract(deployer, routerSrc, map[string]value.Value{
		"token": token.Value(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The router holds no tokens, so we first give it some. The token's
	// balances are keyed by the router's address when it calls
	// Transfer (the router is the _sender of the inner call).
	net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: owner, To: token, Nonce: 1,
		Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
		Transition: "Transfer",
		Args: map[string]value.Value{
			"to": router.Value(), "amount": u128(500),
		},
	})
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}

	dest := chain.AddrFromUint(77)
	net.CreateUser(dest, 0)
	id := net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: owner, To: router, Nonce: 2,
		Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
		Transition: "Forward",
		Args: map[string]value.Value{
			"to": dest.Value(), "amount": u128(123),
		},
	})
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	rec := recs[id]
	if rec == nil || !rec.Success {
		t.Fatalf("forward receipt: %+v", rec)
	}
	if rec.Shard != -1 {
		t.Errorf("inter-contract call executed in shard %d, want DS", rec.Shard)
	}
	if got := balanceOf(t, net, token, dest); got != 123 {
		t.Errorf("dest token balance = %d, want 123", got)
	}
	// The router's own state advanced atomically with the inner call.
	c := net.Contracts.Get(router)
	f, err := c.Snapshot().LoadField("forwarded")
	if err != nil {
		t.Fatal(err)
	}
	if f.(value.Int).V.Uint64() != 1 {
		t.Errorf("forwarded = %s, want 1", f)
	}
}

// TestDeltaStatsReported: EpochStats counts merged components, and the
// per-stage timing breakdown arrives through the recorder.
func TestDeltaStatsReported(t *testing.T) {
	col := obs.NewStageCollector()
	net, contract, users := deployFT(t, 3, 5, true, shard.WithRecorder(col))
	for i := 1; i < 5; i++ {
		net.Submit(transferTx(users[0], users[i], contract, uint64(i), 10))
	}
	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaEntries == 0 {
		t.Error("no delta entries recorded for sharded transfers")
	}
	sum := col.Last()
	if sum.Merge <= 0 {
		t.Error("merge time not measured")
	}
	if sum.Committed != stats.Committed || sum.DeltaEntries != stats.DeltaEntries {
		t.Errorf("recorder summary %+v disagrees with stats %+v", sum, stats)
	}
	if sum.Measured != stats.MeasuredTime {
		t.Errorf("recorder measured %v != stats measured %v", sum.Measured, stats.MeasuredTime)
	}
}

// TestSplitGasAccounting: with the Sec. 4.2.2 split enabled, a sender
// whose balance barely covers gas cannot overdraw through a non-home
// shard.
func TestSplitGasAccounting(t *testing.T) {
	recs := receiptBook{}
	net := shard.NewNetwork(shard.WithShards(4), shard.WithSplitGasAccounting(true))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	owner := chain.AddrFromUint(1)
	net.CreateUser(owner, 1<<40)
	contract, err := net.DeployContract(deployer, contracts.FungibleToken, ftParams(owner), ftQuery())
	if err != nil {
		t.Fatal(err)
	}
	// A poor user: balance 100. Their per-shard allowance outside the
	// home shard is 100/2/(4-1) = 16, below the 10k gas budget.
	poor := chain.AddrFromUint(5)
	net.CreateUser(poor, 100)
	id := net.Submit(transferTx(poor, owner, contract, 1, 0))
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	rec := recs[id]
	if rec == nil {
		t.Fatal("no receipt")
	}
	if rec.Success {
		t.Error("tx with gas budget above the per-shard allowance committed")
	}
}
