// UDRegistry demo: the most popular contract on the Zilliqa mainnet
// (Sec. 5.2.1). Shows how domain grants (Bestow) and record updates
// (Configure) — ~90% of real usage — spread across shards keyed by the
// domain node, while ownership transfers fall back to the DS committee.
//
// Run with: go run ./examples/udregistry
package main

import (
	"crypto/sha256"
	"fmt"
	"log"
	"math/big"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

func node(name string) value.ByStr {
	h := sha256.Sum256([]byte(name))
	return value.ByStr{Ty: ast.TyByStr32, B: h[:]}
}

func main() {
	net := shard.NewNetwork(
		shard.WithShards(4),
		shard.WithGasLimits(1<<40, 1<<40),
	)
	admin := chain.AddrFromUint(1)
	net.CreateUser(admin, 1<<30)

	contract, err := net.DeployContract(admin, contracts.UDRegistry, map[string]value.Value{
		"registry_owner": admin.Value(),
	}, &signature.Query{
		Transitions: []string{"Bestow", "Configure", "ConfigureResolver"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Register some users and bestow domains on them.
	domains := []string{"alice.zil", "bob.zil", "carol.zil", "dave.zil", "erin.zil", "frank.zil"}
	owners := make([]chain.Address, len(domains))
	nonce := uint64(1)
	for i, d := range domains {
		owners[i] = chain.AddrFromUint(uint64(100 + i))
		net.CreateUser(owners[i], 1<<30)
		nonce++
		net.Submit(&chain.Tx{
			Kind: chain.TxCall, From: admin, To: contract, Nonce: nonce,
			Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
			Transition: "Bestow",
			Args: map[string]value.Value{
				"node": node(d), "owner": owners[i].Value(),
			},
		})
	}
	stats, err := net.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bestowed %d domains: per-shard %v, DS %d\n",
		stats.Committed, stats.PerShard, stats.DSCommitted)

	// Each owner configures their domain records. The constraints are
	// keyed by the domain node, so updates to different domains run in
	// parallel in different shards.
	for i, d := range domains {
		for j, kv := range [][2]string{
			{"crypto.ZIL.address", "0xabc"},
			{"ipfs.html.value", "QmHash"},
		} {
			net.Submit(&chain.Tx{
				Kind: chain.TxCall, From: owners[i], To: contract, Nonce: uint64(j + 1),
				Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
				Transition: "Configure",
				Args: map[string]value.Value{
					"node":  node(d),
					"owner": owners[i].Value(),
					"key":   value.Str{S: kv[0]},
					"val":   value.Str{S: kv[1]},
				},
			})
		}
	}
	stats, err = net.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configured records: %d committed, per-shard %v, DS %d\n",
		stats.Committed, stats.PerShard, stats.DSCommitted)

	// Ownership transfers are not in the sharding signature: they are
	// routed to the DS committee.
	net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: owners[0], To: contract, Nonce: 3,
		Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
		Transition: "TransferDomain",
		Args: map[string]value.Value{
			"node": node(domains[0]), "new_owner": owners[1].Value(),
		},
	})
	stats, err = net.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("domain transfer: committed %d, DS handled %d (expected: 1)\n",
		stats.Committed, stats.DSCommitted)

	// Read back alice.zil's record to confirm.
	c := net.Contracts.Get(contract)
	v, ok, err := eval.GetAt(c.Snapshot(), "record_data",
		[]value.Value{node(domains[0]), value.Str{S: "crypto.ZIL.address"}})
	if err != nil || !ok {
		log.Fatalf("record read failed: ok=%v err=%v", ok, err)
	}
	fmt.Printf("alice.zil crypto.ZIL.address = %s\n", v)
	owner, ok, _ := eval.GetAt(c.Snapshot(), "records", []value.Value{node(domains[0])})
	fmt.Printf("alice.zil owner after transfer = %s (bob = %s, ok=%v)\n", owner, owners[1], ok)
}
