// ERC20 sharding demo: deploys the FungibleToken contract on the
// simulated sharded network twice — once with the default (baseline)
// strategy and once with its CoSplit sharding signature — submits the
// same random-transfer workload to both, and reports how the work
// spreads over shards and how long the epochs took on this host. The
// shards of one in-process network run back to back on one goroutine,
// so the rate is one core's, not a cluster's.
//
// Run with: go run ./examples/erc20
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

const (
	numShards = 4
	numUsers  = 100
	numTxs    = 3000
)

func main() {
	for _, sharded := range []bool{false, true} {
		label := "baseline"
		if sharded {
			label = "CoSplit "
		}
		committed, measured, perShard, ds := run(sharded)
		tps := float64(committed) / measured.Seconds()
		fmt.Printf("%s: %5d committed in %8v measured on this host  →  %6.0f tx/s   shards=%v DS=%d\n",
			label, committed, measured.Round(time.Millisecond), tps, perShard, ds)
	}
}

func run(sharded bool) (committed int, measured time.Duration, perShard []int, ds int) {
	net := shard.NewNetwork(
		shard.WithShards(numShards),
		shard.WithGasLimits(1<<40, 1<<40),
	)

	deployer := chain.AddrFromUint(1)
	net.CreateUser(deployer, 1<<50)
	users := make([]chain.Address, numUsers)
	for i := range users {
		users[i] = chain.AddrFromUint(uint64(100 + i))
		net.CreateUser(users[i], 1<<40)
	}

	var q *signature.Query
	if sharded {
		q = &signature.Query{
			Transitions: []string{"Mint", "Transfer", "TransferFrom"},
			WeakReads:   []string{"balances", "allowances"},
		}
	}
	contract, err := net.DeployContract(deployer, contracts.FungibleToken, map[string]value.Value{
		"contract_owner": deployer.Value(),
		"token_name":     value.Str{S: "Example"},
		"token_symbol":   value.Str{S: "EXM"},
		"decimals":       value.Uint32V(6),
		"init_supply":    value.Uint128(1 << 40),
	}, q)
	if err != nil {
		log.Fatal(err)
	}

	// Seed every user with tokens (one epoch of mints).
	nonce := uint64(1)
	for _, u := range users {
		nonce++
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: deployer, To: contract, Nonce: nonce,
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: "Transfer",
			Args: map[string]value.Value{
				"to": u.Value(), "amount": value.Uint128(1 << 20),
			},
		})
	}
	if _, err := net.RunEpoch(); err != nil {
		log.Fatal(err)
	}

	// The measured workload: random user-to-user token transfers.
	rng := rand.New(rand.NewSource(7))
	nonces := map[chain.Address]uint64{}
	for i := 0; i < numTxs; i++ {
		from := users[rng.Intn(numUsers)]
		to := users[rng.Intn(numUsers)]
		for to == from {
			to = users[rng.Intn(numUsers)]
		}
		nonces[from]++
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: from, To: contract, Nonce: nonces[from],
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: "Transfer",
			Args: map[string]value.Value{
				"to": to.Value(), "amount": value.Uint128(uint64(rng.Intn(100) + 1)),
			},
		})
	}
	perShard = make([]int, numShards)
	for net.MempoolSize() > 0 {
		stats, err := net.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		committed += stats.Committed
		measured += stats.MeasuredTime
		for s, n := range stats.PerShard {
			perShard[s] += n
		}
		ds += stats.DSCount
	}
	return committed, measured, perShard, ds
}
