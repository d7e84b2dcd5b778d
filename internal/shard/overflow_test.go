package shard_test

import (
	"math/big"
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// TestOverflowGuard reproduces the Sec. 6 scenario: individually
// in-range commutative writes whose joined deltas could overflow are
// conservatively rejected in-shard when the guard is enabled.
func TestOverflowGuard(t *testing.T) {
	run := func(guard bool, mintAmount *big.Int) *chain.Receipt {
		net := shard.NewNetwork(shard.WithShards(3), shard.WithOverflowGuard(guard))
		deployer := chain.AddrFromUint(999)
		net.CreateUser(deployer, 1<<50)
		owner := chain.AddrFromUint(1)
		net.CreateUser(owner, 1<<50)

		// total_supply starts half way to Uint128 max; the headroom per
		// shard under the guard is (MAX - v0)/3.
		half := new(big.Int).Rsh(ast.MaxInt(ast.TyUint128), 1)
		contract, err := net.DeployContract(deployer, contracts.FungibleToken, map[string]value.Value{
			"contract_owner": owner.Value(),
			"token_name":     value.Str{S: "T"},
			"token_symbol":   value.Str{S: "T"},
			"decimals":       value.Uint32V(6),
			"init_supply":    value.Int{Ty: ast.TyUint128, V: half},
		}, &signature.Query{
			Transitions: []string{"Mint", "Transfer", "TransferFrom"},
			WeakReads:   []string{"balances", "allowances"},
		})
		if err != nil {
			t.Fatal(err)
		}
		id := net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: owner, To: contract, Nonce: 1,
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: "Mint",
			Args: map[string]value.Value{
				"recipient": chain.AddrFromUint(50).Value(),
				"amount":    value.Int{Ty: ast.TyUint128, V: mintAmount},
			},
		})
		recs := receiptBook{}
		if _, err := recs.add(net.RunEpoch()); err != nil {
			t.Fatal(err)
		}
		return recs[id]
	}

	// A mint exceeding (MAX - v0)/3 but individually in range: the
	// guard must reject it; without the guard it commits.
	tooBig := new(big.Int).Rsh(ast.MaxInt(ast.TyUint128), 2) // MAX/4 > (MAX/2)/3
	rec := run(true, tooBig)
	if rec == nil || rec.Success {
		t.Fatalf("guarded oversized mint committed: %+v", rec)
	}
	if !strings.Contains(rec.Error, "overflow guard") {
		t.Errorf("unexpected rejection reason: %s", rec.Error)
	}
	if rec2 := run(false, tooBig); rec2 == nil || !rec2.Success {
		t.Fatalf("unguarded mint should commit (merge of one delta stays in range): %+v", rec2)
	}

	// A small mint passes with the guard on.
	if rec3 := run(true, big.NewInt(1000)); rec3 == nil || !rec3.Success {
		t.Fatalf("guarded small mint rejected: %+v", rec3)
	}
}
