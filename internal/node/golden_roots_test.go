package node

import (
	"encoding/json"
	"flag"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_roots.json")

// Every other bit-identity suite compares two runs of the same binary,
// so a change that moves both together passes. This one pins absolute
// per-epoch state roots, recorded once and asserted three ways: the
// monolithic pipeline on the compiled engine, the same on the
// interpreter, and byte-shipped epochs over a ChanNetwork cluster whose
// replicas must land on the same final root.

const (
	goldenShards   = 3
	goldenEpochs   = 3
	goldenPerEpoch = 120
)

// goldenScenario is one pinned transaction stream: genesis builds a
// replica from the options, stream returns the generator of its
// transactions (a pure function of the call count).
type goldenScenario struct {
	name    string
	opts    []shard.Option
	genesis func(opts ...shard.Option) (*shard.Network, error)
	stream  func() (func() *chain.Tx, error)
}

func workloadScenario(workloadName, name string, opts ...shard.Option) goldenScenario {
	shrunk := func() *workload.Workload {
		wl, err := workload.ByName(workloadName)
		if err != nil {
			panic(err)
		}
		wl.Seed = 1
		if wl.Users > 300 {
			wl.Users = 300
		}
		if wl.SetupSize > 600 {
			wl.SetupSize = 600
		}
		return wl
	}
	return goldenScenario{
		name: name,
		opts: opts,
		genesis: func(opts ...shard.Option) (*shard.Network, error) {
			env, err := workload.Provision(shrunk(), true, opts...)
			if err != nil {
				return nil, err
			}
			return env.Net, nil
		},
		stream: func() (func() *chain.Tx, error) {
			wl := shrunk()
			env, err := workload.Provision(wl, true, shard.WithShards(goldenShards))
			if err != nil {
				return nil, err
			}
			return func() *chain.Tx { return wl.Next(env) }, nil
		},
	}
}

const goldenRouterSrc = `
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

// routerGenesis deploys a signature-less FungibleToken and a Router
// that forwards Transfer calls to it (the contract-to-contract chain
// only the DS committee may execute), and funds the router with
// tokens.
func routerGenesis(opts ...shard.Option) (net *shard.Network, token, router chain.Address, users []chain.Address, err error) {
	net = shard.NewNetwork(opts...)
	deployer := chain.AddrFromUint(999)
	net.CreateUser(deployer, 1<<40)
	for i := 0; i < 20; i++ {
		users = append(users, chain.AddrFromUint(uint64(1+i)))
		net.CreateUser(users[i], 1<<40)
	}
	token, err = net.DeployContract(deployer, contracts.FungibleToken, map[string]value.Value{
		"contract_owner": users[0].Value(),
		"token_name":     value.Str{S: "Test"},
		"token_symbol":   value.Str{S: "TST"},
		"decimals":       value.Uint32V(6),
		"init_supply":    value.Uint128(1_000_000),
	}, nil)
	if err != nil {
		return nil, token, router, nil, err
	}
	router, err = net.DeployContract(deployer, goldenRouterSrc, map[string]value.Value{"token": token.Value()}, nil)
	if err != nil {
		return nil, token, router, nil, err
	}
	net.Submit(&chain.Tx{
		Kind: chain.TxCall, From: users[0], To: token, Nonce: 1,
		Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
		Transition: "Transfer",
		Args:       map[string]value.Value{"to": router.Value(), "amount": value.Uint128(500_000)},
	})
	if _, err = net.RunEpoch(); err != nil {
		return nil, token, router, nil, err
	}
	return net, token, router, users, nil
}

func routerScenario() goldenScenario {
	return goldenScenario{
		name: "Router chain",
		genesis: func(opts ...shard.Option) (*shard.Network, error) {
			net, _, _, _, err := routerGenesis(opts...)
			return net, err
		},
		stream: func() (func() *chain.Tx, error) {
			_, token, router, users, err := routerGenesis(shard.WithShards(goldenShards))
			if err != nil {
				return nil, err
			}
			nonces := map[chain.Address]uint64{users[0]: 1}
			i := 0
			return func() *chain.Tx {
				i++
				from := users[i%len(users)]
				to := users[(i*7+3)%len(users)]
				nonces[from]++
				tx := &chain.Tx{
					Kind: chain.TxCall, From: from, To: router, Nonce: nonces[from],
					Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
					Transition: "Forward",
					Args:       map[string]value.Value{"to": to.Value(), "amount": value.Uint128(uint64(i))},
				}
				if i%4 == 0 {
					// Every fourth call moves tokens directly, from a holder
					// the forwards have funded (or not yet: some fail).
					tx.To, tx.Transition = token, "Transfer"
				}
				return tx
			}, nil
		},
	}
}

func goldenScenarios() []goldenScenario {
	var out []goldenScenario
	for _, w := range workload.All() {
		out = append(out, workloadScenario(w.Name, w.Name))
	}
	// The DS-heavy workload again under a gas cap that defers part of
	// every epoch's DS queue and shard queues to the next.
	out = append(out, workloadScenario("ProofIPFS register", "ProofIPFS register tight gas",
		shard.WithGasLimits(700, 2_500)))
	return append(out, routerScenario())
}

// monolithicRoots drives the scenario through RunEpoch.
func monolithicRoots(t *testing.T, sc goldenScenario, mode ...shard.Option) []string {
	t.Helper()
	opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
	net, err := sc.genesis(append(opts, mode...)...)
	if err != nil {
		t.Fatal(err)
	}
	next, err := sc.stream()
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for e := 0; e < goldenEpochs; e++ {
		for i := 0; i < goldenPerEpoch; i++ {
			net.Submit(next())
		}
		if _, err := net.RunEpoch(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		roots = append(roots, net.StateRoot())
	}
	return roots
}

// clusterRoots drives the scenario through a ChanNetwork cluster and
// requires every replica to finish on the committee's root.
func clusterRoots(t *testing.T, sc goldenScenario) []string {
	t.Helper()
	opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
	cluster, err := NewCluster(func() (*shard.Network, error) { return sc.genesis(opts...) })
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	next, err := sc.stream()
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for e := 0; e < goldenEpochs; e++ {
		for i := 0; i < goldenPerEpoch; i++ {
			if _, err := cluster.Lookup.SubmitTx(next()); err != nil {
				t.Fatalf("epoch %d: submit: %v", e, err)
			}
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("epoch %d: tick: %v", e, res.Err)
		}
		roots = append(roots, res.Root)
	}
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != roots[len(roots)-1] {
			t.Errorf("%s: replica root %s, committee %s", s.name, got, roots[len(roots)-1])
		}
	}
	return roots
}

// TestEpochReceiptsAreTheBlocks: what an epoch returns in
// EpochStats.Receipts is what its FinalBlock carries, element for
// element, on every epoch of every golden scenario — the collected
// block's receipts are the very slice, and a run that collects no block
// returns equal receipts.
func TestEpochReceiptsAreTheBlocks(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
			collecting, err := sc.genesis(opts...)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sc.genesis(opts...)
			if err != nil {
				t.Fatal(err)
			}
			next, err := sc.stream()
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < goldenEpochs; e++ {
				for i := 0; i < goldenPerEpoch; i++ {
					tx := next()
					collecting.Submit(tx)
					plain.Submit(tx)
				}
				run := collecting.BeginEpoch()
				run.CollectFinalBlock()
				blocks := make([]*shard.MicroBlock, len(run.Queues()))
				for s, q := range run.Queues() {
					if blocks[s], err = collecting.ExecuteShard(s, q); err != nil {
						t.Fatalf("epoch %d shard %d: %v", e, s, err)
					}
				}
				stats, fb, err := collecting.FinalizeEpoch(run, blocks)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if len(stats.Receipts) != len(fb.Receipts) {
					t.Fatalf("epoch %d: %d receipts returned, the block carries %d", e, len(stats.Receipts), len(fb.Receipts))
				}
				for i, r := range fb.Receipts {
					if stats.Receipts[i] != r {
						t.Fatalf("epoch %d: returned receipt %d is not the block's: %+v, block %+v", e, i, stats.Receipts[i], r)
					}
				}
				plainStats, err := plain.RunEpoch()
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if !reflect.DeepEqual(plainStats.Receipts, fb.Receipts) {
					t.Fatalf("epoch %d: RunEpoch returned receipts that differ from the block's", e)
				}
			}
		})
	}
}

// TestGoldenStateRoots asserts the recorded roots on both engines and
// over the cluster.
//
//	go test ./internal/node -run TestGoldenStateRoots -update-golden
//
// rewrites the file from the monolithic run; do that only when a
// change is meant to move a root, and name the scenario and the
// transaction in CHANGES.md.
func TestGoldenStateRoots(t *testing.T) {
	path := filepath.Join("testdata", "golden_roots.json")
	golden := map[string][]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	modes := []struct {
		name string
		opts []shard.Option
	}{
		{"monolithic", nil},
		{"interpreter", []shard.Option{shard.WithCompiledExecution(false)}},
	}
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			if *updateGolden {
				golden[sc.name] = monolithicRoots(t, sc)
			}
			want := golden[sc.name]
			if len(want) != goldenEpochs {
				t.Fatalf("golden file has %d roots for %q, want %d", len(want), sc.name, goldenEpochs)
			}
			for _, m := range modes {
				if got := monolithicRoots(t, sc, m.opts...); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: roots %v, golden %v", m.name, got, want)
				}
			}
			if got := clusterRoots(t, sc); !reflect.DeepEqual(got, want) {
				t.Errorf("cluster: roots %v, golden %v", got, want)
			}
		})
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}
