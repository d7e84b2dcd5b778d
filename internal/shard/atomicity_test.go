package shard_test

import (
	"errors"
	"math/big"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// probeSrc is a signature-less contract whose transitions fail after
// the point where the executor has already moved tokens or run other
// contracts. Without a signature a call runs in the contract's home
// shard when the sender lives there and on the DS committee otherwise,
// so one deployment exercises both routes.
const probeSrc = `
scilla_version 0

library Probe

let one_msg =
  fun (m : Message) =>
    let nil = Nil {Message} in
    Cons {Message} m nil

let zero = Uint128 0

contract Probe (self : ByStr20)

field touched : Uint128 = Uint128 0

(* Accepts the incoming amount, sends amount on to a user, writes. *)
transition Spill (to : ByStr20, amount : Uint128)
  accept;
  m = {_tag : ""; _recipient : to; _amount : amount};
  msgs = one_msg m;
  send msgs;
  one = Uint128 1;
  touched := one
end

(* Emits a message nobody can deliver. *)
transition NoRecipient ()
  m = {_tag : ""; _amount : zero};
  msgs = one_msg m;
  send msgs
end

(* Calls itself without end. *)
transition Loop ()
  m = {_tag : "Loop"; _recipient : self; _amount : zero};
  msgs = one_msg m;
  send msgs
end
`

// probeNet deploys the probe on a 3-shard network. user(n, home, bal)
// creates the first account numbered from n that lives in the probe's
// home shard (its calls run in that shard) or outside it (they run on
// the DS committee).
func probeNet(t *testing.T) (net *shard.Network, probe chain.Address, user func(n uint64, home bool, balance uint64) chain.Address) {
	t.Helper()
	net = shard.NewNetwork(shard.WithShards(3))
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	probe, err := net.DeployContract(deployer, probeSrc, map[string]value.Value{
		"self": chain.ContractAddress(deployer, 1).Value(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	user = func(n uint64, home bool, balance uint64) chain.Address {
		a := chain.AddrFromUint(n)
		for (chain.ShardOf(a, 3) == chain.ShardOf(probe, 3)) != home {
			n++
			a = chain.AddrFromUint(n)
		}
		net.CreateUser(a, balance)
		return a
	}
	return net, probe, user
}

func probeCall(from, probe chain.Address, nonce, amount uint64, transition string, args map[string]value.Value) *chain.Tx {
	return &chain.Tx{
		Kind: chain.TxCall, From: from, To: probe, Nonce: nonce,
		Amount: new(big.Int).SetUint64(amount), GasLimit: 10_000, GasPrice: 1,
		Transition: transition, Args: args,
	}
}

// TestFailedCallMovesNoTokens: a transition that accepts 500, then
// sends more than the contract holds, then writes a field must fail as
// a unit — the field unwritten, the accepted amount back with the
// sender, only gas and the nonce charged — and identically whether it
// ran in a shard or on the DS committee.
func TestFailedCallMovesNoTokens(t *testing.T) {
	recs := receiptBook{}
	net, probe, user := probeNet(t)
	inShard, viaDS := user(100, true, 1_000_000), user(200, false, 1_000_000)
	recipient := user(300, true, 0)
	spill := func(from chain.Address) uint64 {
		return net.Submit(probeCall(from, probe, 1, 500, "Spill", map[string]value.Value{
			"to": recipient.Value(), "amount": u128(10_000),
		}))
	}
	ids := map[string]uint64{"shard": spill(inShard), "DS": spill(viaDS)}
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}

	senders := map[string]chain.Address{"shard": inShard, "DS": viaDS}
	spent := map[string]uint64{}
	for route, id := range ids {
		rec := recs[id]
		if rec == nil || rec.Success {
			t.Fatalf("%s route: receipt %+v, want failure", route, rec)
		}
		if (route == "DS") != (rec.Shard == -1) {
			t.Fatalf("%s route: executed on shard %d", route, rec.Shard)
		}
		if !errors.Is(rec.Err, shard.ErrInsufficientBalance) {
			t.Errorf("%s route: receipt Err = %v, want ErrInsufficientBalance", route, rec.Err)
		}
		acc, _ := net.Accounts.Get(senders[route])
		spent[route] = 1_000_000 - acc.Balance.Lo
		if spent[route] != rec.GasUsed {
			t.Errorf("%s route: sender paid %d, want gas only (%d)", route, spent[route], rec.GasUsed)
		}
		if acc.Nonce != 1 {
			t.Errorf("%s route: sender nonce %d, want 1", route, acc.Nonce)
		}
	}
	if spent["shard"] != spent["DS"] {
		t.Errorf("routes charged differently: shard %d, DS %d", spent["shard"], spent["DS"])
	}
	if acc, _ := net.Accounts.Get(probe); !acc.Balance.IsZero() {
		t.Errorf("contract balance %s after two failed calls, want 0", acc.Balance)
	}
	if acc, _ := net.Accounts.Get(recipient); !acc.Balance.IsZero() {
		t.Errorf("recipient balance %s, want 0", acc.Balance)
	}
	touched, err := net.Contracts.Get(probe).Snapshot().LoadField("touched")
	if err != nil {
		t.Fatal(err)
	}
	if touched.(value.Int).V.Sign() != 0 {
		t.Errorf("touched = %s after failed calls, want 0", touched)
	}
	if got, want := net.StateRoot(), net.RecomputeStateRoot(); got != want {
		t.Errorf("incremental root %s, recomputed %s", got, want)
	}
}
