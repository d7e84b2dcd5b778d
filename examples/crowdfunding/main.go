// Crowdfunding lifecycle demo: a campaign is deployed with a CoSplit
// sharding signature; donations from many users are processed in
// parallel across shards (each donor's backers entry lands in their
// home shard); after the deadline passes without reaching the goal,
// backers reclaim their funds through the contract's home shard.
//
// Run with: go run ./examples/crowdfunding
package main

import (
	"fmt"
	"log"
	"math/big"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

func main() {
	net := shard.NewNetwork(
		shard.WithShards(3),
		shard.WithGasLimits(1<<40, 1<<40),
	)
	owner := chain.AddrFromUint(1)
	net.CreateUser(owner, 1_000_000)

	const numBackers = 30
	backers := make([]chain.Address, numBackers)
	for i := range backers {
		backers[i] = chain.AddrFromUint(uint64(100 + i))
		net.CreateUser(backers[i], 1_000_000)
	}

	// Deploy with a deadline a few epochs out and an unreachable goal,
	// so the claim-back path triggers.
	deadline := net.BlockNumber + 3
	contract, err := net.DeployContract(owner, contracts.Crowdfunding, map[string]value.Value{
		"owner":     owner.Value(),
		"max_block": value.BNum{V: new(big.Int).SetUint64(deadline)},
		"goal":      value.Uint128(1_000_000_000),
	}, &signature.Query{
		Transitions: []string{"Donate", "ClaimBack"},
		WeakReads:   []string{signature.BalanceField},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: everyone donates 1000 QA. Donations carry native tokens
	// (accept), so each lands in its donor's home shard.
	for _, b := range backers {
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: b, To: contract, Nonce: 1,
			Amount: big.NewInt(1000), GasLimit: 100_000, GasPrice: 1,
			Transition: "Donate",
		})
	}
	stats, err := net.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("donations: %d committed, per-shard spread %v, DS %d\n",
		stats.Committed, stats.PerShard, stats.DSCommitted)
	fmt.Printf("contract balance after donations: %s QA\n",
		balance(net, contract))

	// Phase 2: let the deadline pass.
	for net.BlockNumber <= deadline {
		if _, err := net.RunEpoch(); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 3: the goal was not met — backers claim their refunds.
	// Refunds move funds out of the contract, so they are pinned to the
	// contract's home shard (ContractShard) or the DS committee.
	for _, b := range backers {
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: b, To: contract, Nonce: 2,
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: "ClaimBack",
		})
	}
	total := 0
	for net.MempoolSize() > 0 {
		stats, err = net.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		total += stats.Committed
	}
	fmt.Printf("claim-backs committed: %d\n", total)
	fmt.Printf("contract balance after refunds: %s QA\n",
		balance(net, contract))
	fmt.Printf("backer 0 final balance: %s QA (donated 1000, refunded 1000, paid gas)\n",
		balance(net, backers[0]))
}

// balance returns an account's committed balance (zero if absent).
func balance(net *shard.Network, a chain.Address) chain.Balance {
	acc, _ := net.Accounts.Get(a)
	return acc.Balance
}
