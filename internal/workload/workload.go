// Package workload implements deterministic transaction-stream
// generators for the eight Fig. 14 workloads of the paper's throughput
// evaluation, plus helpers to stand up the corresponding contracts.
package workload

import (
	"fmt"
	"math/big"
	"math/rand"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// Env is a provisioned benchmark environment: a network, a deployed
// contract, and a user population with client-side nonce tracking.
type Env struct {
	Net      *shard.Network
	Contract chain.Address
	Owner    chain.Address
	Users    []chain.Address
	nonces   map[chain.Address]uint64
	rng      *rand.Rand
	next     uint64 // workload-specific counter (token ids, hashes, ...)
}

// NextNonce returns the next client-side nonce for a sender.
func (e *Env) NextNonce(a chain.Address) uint64 {
	e.nonces[a]++
	return e.nonces[a]
}

// ResyncNonces resets the client-side nonce tracking to the on-chain
// account nonces. Required after recovering the network from a state
// store: the chain is ahead of the freshly provisioned client, so
// genesis-level nonces would all be rejected as stale. Only nonces are
// resynced — workloads whose streams depend on an internal counter
// (minted token ids, registered hashes) may still collide with already
// committed state; pure-transfer workloads resume cleanly.
func (e *Env) ResyncNonces() {
	sync := func(a chain.Address) {
		if nonce, ok := e.Net.Accounts.NonceOf(a); ok {
			e.nonces[a] = nonce
		}
	}
	sync(e.Owner)
	for _, a := range e.Users {
		sync(a)
	}
	for a := range e.nonces {
		sync(a)
	}
}

// Workload is one benchmark workload.
type Workload struct {
	// Name as it appears in Fig. 14 (e.g. "FT transfer").
	Name string
	// Contract is the corpus contract it exercises.
	Contract string
	// Query is the paper's sharding selection; nil-query runs baseline.
	Query signature.Query
	// Users is the benchmark population size.
	Users int
	// SetupSize scales the Setup phase (tokens minted, domains
	// bestowed, donor pool); tests shrink it.
	SetupSize int
	// Seed selects the stream's deterministic random source; 0 means
	// the default seed 1. Determinism suites provision the same
	// workload under several seeds.
	Seed int64
	// Setup submits and settles any prerequisite transactions.
	Setup func(e *Env) error
	// Next generates the next transaction of the stream.
	Next func(e *Env) *chain.Tx
}

func u128(v uint64) value.Int { return value.Uint128(v) }

func hash32(n uint64) value.ByStr {
	b := make([]byte, 32)
	for i := 0; i < 8; i++ {
		b[31-i] = byte(n >> (8 * i))
	}
	return value.ByStr{Ty: ast.TyByStr32, B: b}
}

func u256(n uint64) value.Int {
	return value.Int{Ty: ast.TyUint256, V: new(big.Int).SetUint64(n)}
}

func call(e *Env, from chain.Address, transition string, amount uint64, args map[string]value.Value) *chain.Tx {
	return &chain.Tx{
		Kind:       chain.TxCall,
		From:       from,
		To:         e.Contract,
		Nonce:      e.NextNonce(from),
		Amount:     new(big.Int).SetUint64(amount),
		GasLimit:   100_000,
		GasPrice:   1,
		Transition: transition,
		Args:       args,
	}
}

// settle runs epochs until the Submit queue drains (used by Setup
// phases).
func settle(e *Env) error {
	for e.Net.MempoolSize() > 0 {
		if _, err := e.Net.RunEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// TopUp submits transactions from w's stream until the network's Submit
// queue holds n. Called before each epoch it sustains a fixed offered
// load: the deferred backlog stays bounded and every epoch dispatches
// the same packet size.
func (e *Env) TopUp(w *Workload, n int) {
	for i := e.Net.MempoolSize(); i < n; i++ {
		e.Net.Submit(w.Next(e))
	}
}

// Provision builds the environment for a workload on a network built
// from the given options; sharded=false deploys without a signature
// (the baseline configuration of Sec. 5.2).
func Provision(w *Workload, sharded bool, opts ...shard.Option) (*Env, error) {
	net := shard.NewNetwork(opts...)
	deployer := chain.AddrFromUint(1)
	net.CreateUser(deployer, 1<<60)
	users := make([]chain.Address, w.Users)
	for i := range users {
		users[i] = chain.AddrFromUint(uint64(100 + i))
		net.CreateUser(users[i], 1<<50)
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	e := &Env{
		Net:    net,
		Owner:  deployer,
		Users:  users,
		nonces: make(map[chain.Address]uint64),
		rng:    rand.New(rand.NewSource(seed)),
	}
	entry, err := contracts.Get(w.Contract)
	if err != nil {
		return nil, err
	}
	var q *signature.Query
	if sharded {
		qq := w.Query
		q = &qq
	}
	addr, err := net.DeployContract(deployer, entry.Source, contractParams(w.Contract, deployer), q)
	if err != nil {
		return nil, err
	}
	e.Contract = addr
	e.nonces[deployer] = 1 // deployment consumed nonce 1
	if w.Setup != nil {
		if err := w.Setup(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// contractParams supplies deployment parameters for each evaluation
// contract.
func contractParams(contract string, owner chain.Address) map[string]value.Value {
	switch contract {
	case "FungibleToken":
		return map[string]value.Value{
			"contract_owner": owner.Value(),
			"token_name":     value.Str{S: "Bench"},
			"token_symbol":   value.Str{S: "BNCH"},
			"decimals":       value.Uint32V(6),
			"init_supply":    u128(1 << 50),
		}
	case "NonfungibleToken":
		return map[string]value.Value{
			"contract_owner": owner.Value(),
			"name":           value.Str{S: "BenchNFT"},
			"symbol":         value.Str{S: "BNFT"},
		}
	case "Crowdfunding":
		return map[string]value.Value{
			"owner":     owner.Value(),
			"max_block": value.BNum{V: big.NewInt(1 << 40)},
			"goal":      u128(1 << 40),
		}
	case "ProofIPFS":
		return map[string]value.Value{
			"initial_admin": owner.Value(),
		}
	case "UDRegistry":
		return map[string]value.Value{
			"registry_owner": owner.Value(),
		}
	}
	panic("unknown contract " + contract)
}

// All returns the eight Fig. 14 workloads, in the figure's order.
func All() []*Workload {
	return []*Workload{
		FTFund(),
		FTTransfer(),
		FTTransferDisjoint(),
		CFDonate(),
		NFTMint(),
		NFTTransfer(),
		ProofIPFSRegister(),
		UDBestow(),
		UDConfig(),
	}
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var ftQuery = signature.Query{
	Transitions: []string{"Mint", "Transfer", "TransferFrom"},
	WeakReads:   []string{"balances", "allowances"},
}

// FTFund transfers fungible tokens from a single source to random
// destinations; every transaction owns the source balance, so it does
// not shard (the paper's non-scaling case).
func FTFund() *Workload {
	return &Workload{
		Name:     "FT fund",
		Contract: "FungibleToken",
		Query:    ftQuery,
		Users:    200,
		Next: func(e *Env) *chain.Tx {
			to := e.Users[e.rng.Intn(len(e.Users))]
			return call(e, e.Owner, "Transfer", 0, map[string]value.Value{
				"to": to.Value(), "amount": u128(1),
			})
		},
	}
}

// FTTransfer transfers tokens between random users (the paper's
// linearly scaling headline workload).
func FTTransfer() *Workload {
	return &Workload{
		Name:     "FT transfer",
		Contract: "FungibleToken",
		Query:    ftQuery,
		Users:    200,
		Setup: func(e *Env) error {
			for _, u := range e.Users {
				e.Net.Submit(call(e, e.Owner, "Transfer", 0, map[string]value.Value{
					"to": u.Value(), "amount": u128(1 << 30),
				}))
			}
			return settle(e)
		},
		Next: func(e *Env) *chain.Tx {
			from := e.Users[e.rng.Intn(len(e.Users))]
			to := e.Users[e.rng.Intn(len(e.Users))]
			for to == from {
				to = e.Users[e.rng.Intn(len(e.Users))]
			}
			return call(e, from, "Transfer", 0, map[string]value.Value{
				"to": to.Value(), "amount": u128(1),
			})
		},
	}
}

// FTTransferDisjoint transfers tokens between pairwise-disjoint
// sender/recipient pairs: each epoch-sized window of the stream touches
// every user at most once, so what one transaction touches (sender
// account, sender and recipient token balances) is disjoint from what
// every other does: no transaction waits on or fails because of another.
// It is the stream of the benchmark's epoch_ft_sharded workload.
func FTTransferDisjoint() *Workload {
	return &Workload{
		Name:     "FT transfer disjoint",
		Contract: "FungibleToken",
		Query:    ftQuery,
		Users:    4000,
		Setup: func(e *Env) error {
			for i, u := range e.Users {
				e.Net.Submit(call(e, e.Owner, "Transfer", 0, map[string]value.Value{
					"to": u.Value(), "amount": u128(1 << 30),
				}))
				// Settle in batches below the per-epoch capacity so the
				// single funder's nonces never reorder across epochs.
				if (i+1)%2000 == 0 {
					if err := settle(e); err != nil {
						return err
					}
				}
			}
			return settle(e)
		},
		Next: func(e *Env) *chain.Tx {
			n := uint64(len(e.Users))
			p := e.next
			e.next++
			from := e.Users[(2*p)%n]
			to := e.Users[(2*p+1)%n]
			return call(e, from, "Transfer", 0, map[string]value.Value{
				"to": to.Value(), "amount": u128(1),
			})
		},
	}
}

// CFDonate has random users donate to the crowdfunding campaign.
func CFDonate() *Workload {
	w := &Workload{
		Name:     "CF donate",
		Contract: "Crowdfunding",
		Query: signature.Query{
			Transitions: []string{"Donate", "ClaimBack"},
			WeakReads:   []string{signature.BalanceField},
		},
		Users:     100_000,
		SetupSize: 100_000,
	}
	w.Next = func(e *Env) *chain.Tx {
		// Each donor may donate once; walk the population.
		u := e.Users[e.next%uint64(len(e.Users))]
		e.next++
		return call(e, u, "Donate", 10, nil)
	}
	return w
}

var nftQuery = signature.Query{
	Transitions: []string{"Mint", "Transfer"},
	WeakReads:   []string{"owned_count", "total_tokens"},
}

// NFTMint mints fresh tokens from the single minter account; state is
// keyed by token id, so even this single-source workload scales
// (Sec. 5.2.1).
func NFTMint() *Workload {
	return &Workload{
		Name:     "NFT mint",
		Contract: "NonfungibleToken",
		Query:    nftQuery,
		Users:    200,
		Next: func(e *Env) *chain.Tx {
			e.next++
			to := e.Users[e.rng.Intn(len(e.Users))]
			return call(e, e.Owner, "Mint", 0, map[string]value.Value{
				"to": to.Value(), "token_id": u256(e.next),
			})
		},
	}
}

// NFTTransfer transfers previously minted tokens between users. Each
// token is transferred exactly once by its minted owner: transfer
// chains would be sensitive to deferral reordering under the relaxed
// nonce rule (a deferred low-nonce transaction is rejected once a
// higher nonce from the same sender commits in another shard), which
// is protocol-correct but not what a throughput benchmark should
// measure. The large user pool keeps per-sender in-flight counts low.
func NFTTransfer() *Workload {
	w := &Workload{
		Name:      "NFT transfer",
		Contract:  "NonfungibleToken",
		Query:     nftQuery,
		Users:     20_000,
		SetupSize: 100_000,
	}
	w.Setup = func(e *Env) error {
		tokens := uint64(w.SetupSize)
		for i := uint64(1); i <= tokens; i++ {
			to := e.Users[int(i)%len(e.Users)]
			e.Net.Submit(call(e, e.Owner, "Mint", 0, map[string]value.Value{
				"to": to.Value(), "token_id": u256(i),
			}))
			// Settle in batches below the per-epoch capacity so the
			// single minter's nonces never reorder across epochs.
			if i%2000 == 0 {
				if err := settle(e); err != nil {
					return err
				}
			}
		}
		return settle(e)
	}
	w.Next = func(e *Env) *chain.Tx {
		tokens := uint64(w.SetupSize)
		e.next++
		id := (e.next-1)%tokens + 1
		owner := e.Users[int(id)%len(e.Users)] // minted to user (id % len)
		to := e.Users[e.rng.Intn(len(e.Users))]
		return call(e, owner, "Transfer", 0, map[string]value.Value{
			"to": to.Value(), "token_id": u256(id), "token_owner": owner.Value(),
		})
	}
	return w
}

// ProofIPFSRegister notarises fresh hashes from random users. Its two
// ownership constraints usually resolve to different shards, so most
// registrations go to the DS committee (the paper's second
// non-scaling case).
func ProofIPFSRegister() *Workload {
	return &Workload{
		Name:     "ProofIPFS register",
		Contract: "ProofIPFS",
		Query: signature.Query{
			Transitions: []string{"RegisterOwnership"},
			WeakReads:   []string{"collected", "item_count", signature.BalanceField},
		},
		Users: 200,
		Next: func(e *Env) *chain.Tx {
			e.next++
			u := e.Users[e.rng.Intn(len(e.Users))]
			return call(e, u, "RegisterOwnership", 0, map[string]value.Value{
				"item_hash": hash32(e.next),
			})
		},
	}
}

var udQuery = signature.Query{
	Transitions: []string{"Bestow", "Configure", "ConfigureResolver"},
}

// UDBestow grants fresh domains (admin-driven, keyed by domain node).
func UDBestow() *Workload {
	return &Workload{
		Name:     "UD bestow",
		Contract: "UDRegistry",
		Query:    udQuery,
		Users:    200,
		Next: func(e *Env) *chain.Tx {
			e.next++
			owner := e.Users[e.rng.Intn(len(e.Users))]
			return call(e, e.Owner, "Bestow", 0, map[string]value.Value{
				"node": hash32(e.next), "owner": owner.Value(),
			})
		},
	}
}

// UDConfig updates records of previously bestowed domains.
func UDConfig() *Workload {
	w := &Workload{
		Name:      "UD config",
		Contract:  "UDRegistry",
		Query:     udQuery,
		Users:     20_000,
		SetupSize: 20_000,
	}
	w.Setup = func(e *Env) error {
		domains := uint64(w.SetupSize)
		for i := uint64(1); i <= domains; i++ {
			owner := e.Users[int(i)%len(e.Users)]
			e.Net.Submit(call(e, e.Owner, "Bestow", 0, map[string]value.Value{
				"node": hash32(i), "owner": owner.Value(),
			}))
			// Settle in capacity-sized batches (single-admin nonces).
			if i%2000 == 0 {
				if err := settle(e); err != nil {
					return err
				}
			}
		}
		return settle(e)
	}
	w.Next = func(e *Env) *chain.Tx {
		domains := uint64(w.SetupSize)
		e.next++
		id := (e.next % domains) + 1
		owner := e.Users[int(id)%len(e.Users)]
		return call(e, owner, "Configure", 0, map[string]value.Value{
			"node":  hash32(id),
			"owner": owner.Value(),
			"key":   value.Str{S: fmt.Sprintf("key%d", e.next%4)},
			"val":   value.Str{S: fmt.Sprintf("val%d", e.next)},
		})
	}
	return w
}
