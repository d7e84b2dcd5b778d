// Package cosplit_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure in the paper's evaluation
// (Sec. 5), as indexed in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// The heavyweight throughput benchmarks (Fig. 14) use scaled-down
// epoch counts per iteration; `go run ./cmd/shardsim fig14` runs the
// full 10-epoch configuration from the paper.
package cosplit_test

import (
	"fmt"
	"maps"
	"math/big"
	"runtime"
	"testing"
	"time"

	"cosplit/internal/bench"
	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/analysis"
	"cosplit/internal/core/ge"
	"cosplit/internal/core/signature"
	"cosplit/internal/ethdata"
	"cosplit/internal/node"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/parser"
	"cosplit/internal/scilla/typecheck"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// --- E1/E2: Fig. 1 — Ethereum transaction breakdown ---

func BenchmarkFig1Breakdown(b *testing.B) {
	sample := ethdata.Generate(2000, 2020)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := ethdata.Analyze(sample)
		if len(buckets) == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// --- E3/E4: Fig. 12 — deployment pipeline stage timings ---

func BenchmarkFig12Parse(b *testing.B) {
	for _, e := range contracts.All() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parser.ParseModule(e.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12Typecheck(b *testing.B) {
	for _, e := range contracts.All() {
		m, err := parser.ParseModule(e.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := typecheck.Check(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig12ShardingAnalysis(b *testing.B) {
	for _, e := range contracts.All() {
		chk := contracts.MustParse(e.Name)
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := analysis.New(chk)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.AnalyzeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6/E7/E8: Fig. 13 and the Sec. 5.2 table — GE enumeration ---

func BenchmarkFig13GoodEnough(b *testing.B) {
	for _, name := range []string{
		"FungibleToken", "Crowdfunding", "NonfungibleToken", "ProofIPFS", "UDRegistry",
	} {
		chk := contracts.MustParse(name)
		a, err := analysis.New(chk)
		if err != nil {
			b.Fatal(err)
		}
		sums, err := a.AnalyzeAll()
		if err != nil {
			b.Fatal(err)
		}
		var fields []string
		for f := range chk.FieldTypes {
			fields = append(fields, f)
		}
		fields = append(fields, signature.BalanceField)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ge.Analyze(name, sums, fields); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Fig. 14 — throughput per workload and configuration ---

// benchThroughputCfg is a scaled-down per-iteration configuration.
var benchThroughputCfg = bench.ThroughputConfig{
	Epochs:        3,
	TxsPerEpoch:   3000,
	NodesPerShard: 5,
	ShardGasLimit: 30_000,
	DSGasLimit:    30_000,
}

func BenchmarkFig14(b *testing.B) {
	for _, w := range workload.All() {
		name := w.Name
		for _, cfgCase := range []struct {
			label   string
			shards  int
			sharded bool
		}{
			{"baseline-3sh", 3, false},
			{"cosplit-3sh", 3, true},
			{"cosplit-4sh", 4, true},
			{"cosplit-5sh", 5, true},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, cfgCase.label), func(b *testing.B) {
				var committed int
				var seconds float64
				for i := 0; i < b.N; i++ {
					w2, err := workload.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					// Scale down the provisioning phase: the offered
					// load here is 9,000 transactions per iteration.
					if w2.SetupSize > 10_000 {
						w2.SetupSize = 10_000
					}
					if w2.Users > 10_000 {
						w2.Users = 10_000
					}
					r, err := bench.MeasureThroughput(w2, cfgCase.shards, cfgCase.sharded, benchThroughputCfg)
					if err != nil {
						b.Fatal(err)
					}
					committed += r.Committed
					seconds += r.WallTime.Seconds()
				}
				b.ReportMetric(float64(committed)/seconds, "tps")
			})
		}
	}
}

// --- E10: Sec. 5.2.2 — dispatch and merge overheads ---

func benchmarkDispatch(b *testing.B, sharded bool) {
	w := workload.FTTransfer()
	w.Setup = nil
	env, err := workload.Provision(w, sharded, shard.WithShards(3))
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*chain.Tx, b.N)
	for i := range txs {
		tx := w.Next(env)
		tx.ID = uint64(i + 1)
		txs[i] = tx
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Net.Disp.Dispatch(txs[i])
	}
}

func BenchmarkDispatchBaseline(b *testing.B) { benchmarkDispatch(b, false) }
func BenchmarkDispatchCoSplit(b *testing.B)  { benchmarkDispatch(b, true) }

// BenchmarkMergePerField measures the per-changed-field cost of the
// three-way merge for both join operations (Sec. 5.2.2: 0.8µs → 48.65µs
// per field in the paper), on the path the commit takes: into the state
// itself, in place, through the undo log.
func BenchmarkMergePerField(b *testing.B) {
	for _, join := range []signature.Join{signature.OwnOverwrite, signature.IntMerge} {
		b.Run(join.String(), func(b *testing.B) {
			fieldTypes := contracts.MustParse("FungibleToken").FieldTypes
			const entries = 1000
			base := eval.NewMemState(fieldTypes)
			if err := base.InitFrom(mustInterp(b)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < entries; i++ {
				k := chain.AddrFromUint(uint64(i)).Value()
				if err := eval.SetAt(base, "balances", []value.Value{k}, value.Uint128(1000)); err != nil {
					b.Fatal(err)
				}
			}
			ov := chain.NewOverlay(base, fieldTypes)
			for i := 0; i < entries; i++ {
				k := chain.AddrFromUint(uint64(i)).Value()
				if err := eval.SetAt(ov, "balances", []value.Value{k}, value.Uint128(1234)); err != nil {
					b.Fatal(err)
				}
			}
			d, err := ov.ExtractDelta(chain.Address{}, 0, map[string]signature.Join{"balances": join})
			if err != nil {
				b.Fatal(err)
			}
			var undo chain.Undo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Merging the same delta again is a fresh merge of as
				// many entries: overwrites land on the same slots, the
				// additions (+234 each) stay far inside Uint128.
				if err := chain.MergeDeltas(base, []*chain.StateDelta{d}, &undo); err != nil {
					b.Fatal(err)
				}
				undo.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/field")
		})
	}
}

// BenchmarkCommitHolders is the flatness row: one fixed 500-entry delta
// (half additions, half overwrites, with the senders' account delta)
// committed into a token contract of 10k, 100k and 1M holders. merge
// times the commit of a FinalBlock's two phases (Network.commit via
// ApplyFinalBlock, root trie touched but not hashed); root times the
// StateRoot call that rehashes what the commit dirtied. Both should
// read the same at every size; what root still gains with size is the
// fan-out of the dirty nodes (DESIGN §11).
func BenchmarkCommitHolders(b *testing.B) {
	const entries = 500
	for _, holders := range []int{10_000, 100_000, 1_000_000} {
		// The state is built inside the size's own benchmark, so a
		// -bench filter on one size does not pay for the others.
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			net, fb := holdersNetwork(b, holders, entries)
			apply := func(b *testing.B) {
				fb.Epoch = net.Epoch
				if err := net.ApplyFinalBlock(fb); err != nil {
					b.Fatal(err)
				}
			}
			b.Run("merge", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					apply(b)
					b.StopTimer()
					net.StateRoot()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
			})
			b.Run("root", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					apply(b)
					b.StartTimer()
					net.StateRoot()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
			})
		})
	}
}

// holdersNetwork is the state of the flatness rows: a token contract
// of `holders` balances, and one block whose 500-entry delta (half
// additions, half overwrites, with the senders' account delta) is
// spread over the whole key space, so the dirty paths are as many at
// every size.
func holdersNetwork(b *testing.B, holders, entries int) (*shard.Network, *shard.FinalBlock) {
	net := shard.NewNetwork(shard.WithShards(3))
	deployer := chain.AddrFromUint(999_999_999)
	net.CreateUser(deployer, 1<<60)
	c, err := net.DeployContract(deployer, contracts.FungibleToken, map[string]value.Value{
		"contract_owner": deployer.Value(),
		"token_name":     value.Str{S: "B"},
		"token_symbol":   value.Str{S: "B"},
		"decimals":       value.Uint32V(6),
		"init_supply":    value.Uint128(0),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
	for i := 0; i < holders; i++ {
		balances.Set(chain.AddrFromUint(uint64(i+1)).Value(), value.Uint128(1000))
	}
	con := net.Contracts.Get(c)
	st := eval.NewMemState(con.Checked.FieldTypes)
	maps.Copy(st.Fields, con.Snapshot().Fields)
	st.Fields["balances"] = balances
	con.ReplaceState(st)
	fd := chain.FieldDelta{Name: "balances", Entries: make([]chain.EntryDelta, 0, entries)}
	acc := chain.NewAccountDelta()
	for i := 0; i < entries; i++ {
		u := chain.AddrFromUint(uint64(i*(holders/entries) + 1))
		net.CreateUser(u, 1<<50)
		keys := []value.Value{u.Value()}
		if i%2 == 0 {
			fd.Entries = append(fd.Entries, chain.EntryDelta{Kind: chain.IntAdd, Keypath: chain.Keypath(keys), Keys: keys, Delta: big.NewInt(3)})
		} else {
			fd.Entries = append(fd.Entries, chain.EntryDelta{Kind: chain.Overwrite, Keypath: chain.Keypath(keys), Keys: keys, Value: value.Uint128(uint64(2000 + i))})
		}
		acc.AddBalance(u, big.NewInt(-7))
		acc.BumpNonce(u, 1)
	}
	chain.SortEntries(fd.Entries)
	net.RebuildStateRoots()
	net.StateRoot()
	return net, &shard.FinalBlock{
		Deltas:   []*chain.StateDelta{{Contract: c, Fields: []chain.FieldDelta{fd}}},
		Accounts: acc,
	}
}

// BenchmarkSnapshotHolders is the snapshot boundary's flatness row,
// beside the commit's: the store journals the same 500-entry block over
// 10k, 100k and 1M holders and, the epoch being a boundary, runs the
// fold rule — the first boundary of a fresh directory, whose journal
// costs far less to replay than the state has leaves, so it writes no
// file at any holder count. ns/entry, B/op, allocs/op and snapshot-B/op
// (0) should read the same at every size; the full dump of every
// boundary it replaces grew with the holders.
func BenchmarkSnapshotHolders(b *testing.B) {
	const entries = 500
	for _, holders := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			net, fb := holdersNetwork(b, holders, entries)
			fb.Epoch = net.Epoch
			cp := shard.Checkpoint{Epoch: fb.Epoch + 1, BlockNumber: fb.Epoch + 1}
			reg := obs.NewRegistry()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := store.Open(b.TempDir(), store.WithSnapshotEvery(1), store.WithRegistry(reg))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := st.EpochCommitted(net, fb, cp); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if files := reg.Counter("store.snapshots").Value(); files != 0 {
				b.Fatalf("%d of %d boundaries wrote a snapshot file", files, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
			b.ReportMetric(float64(reg.Counter("store.snapshot_bytes").Value())/float64(b.N), "snapshot-B/op")
		})
	}
}

// BenchmarkBlockFanout is the cost of getting one sealed block to
// everyone who keeps it: a 4000-tx `FT transfer disjoint` epoch through
// a ChanNetwork cluster whose committee and three replicas journal with
// fsync and whose lookup files the receipts. The timer covers the tick
// (dispatch, batches, execution, MicroBlocks, finalize, journal,
// broadcast), an empty tick behind it — a shard answers its batch only
// after applying and journaling the block before it — and the lookup
// seeing the last receipt. Submission is outside the timer. retained-B/tx
// is what the timed epochs left on the live heap, per transaction;
// leftover-B/tx is the same for the first epoch, whose growth of
// reusable capacity the timed epochs do not repeat, and it is where an
// object a finished epoch leaves behind shows.
func BenchmarkBlockFanout(b *testing.B) {
	const txs = 4000
	w := workload.FTTransferDisjoint()
	genesis := func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	src, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := node.NewCluster(genesis, node.ClusterStateDir(b.TempDir(), 0))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	// Allocation is read around the timed part only (testing reports it
	// per op; per transaction is what the rows in EXPERIMENTS.md compare).
	var before, after runtime.MemStats
	var bytes, mallocs uint64
	epoch := func() {
		b.StopTimer()
		var last uint64
		for i := 0; i < txs; i++ {
			last = cluster.DS.Net().Submit(w.Next(src))
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, want := range []int{txs, 0} {
			res := cluster.Tick()
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Stats.Committed != want {
				b.Fatalf("epoch %d committed %d transactions, want %d", res.Stats.Epoch, res.Stats.Committed, want)
			}
		}
		if cluster.Lookup.WaitReceipt(last, 10*time.Second) == nil {
			b.Fatalf("receipt %d never reached the lookup", last)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
	}
	// What stays: the live heap after a collection, before and after the
	// timed epochs. Until a role's receipt log is full (25 such epochs)
	// that is state growth plus one filed receipt per role per
	// transaction; blocks, frames and deltas must not be in it.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc)
	}
	leftover := liveHeap()
	epoch() // first-epoch growth of queues, overlays and journals
	bytes, mallocs = 0, 0
	held := liveHeap()
	leftover = held - leftover
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	held = liveHeap() - held
	runtime.KeepAlive(src) // the generator's own network is in the first reading: keep it in the second
	perTx := float64(b.N) * txs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTx, "ns/tx")
	b.ReportMetric(float64(bytes)/perTx, "B/tx")
	b.ReportMetric(float64(mallocs)/perTx, "allocs/tx")
	b.ReportMetric(float64(held)/perTx, "retained-B/tx")
	b.ReportMetric(float64(leftover)/txs, "leftover-B/tx")
}

func mustInterp(b *testing.B) *eval.Interpreter {
	b.Helper()
	chk := contracts.MustParse("FungibleToken")
	owner := chain.AddrFromUint(1)
	in, err := eval.New(chk, map[string]value.Value{
		"contract_owner": owner.Value(),
		"token_name":     value.Str{S: "B"},
		"token_symbol":   value.Str{S: "B"},
		"decimals":       value.Uint32V(6),
		"init_supply":    value.Uint128(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// --- E11 / core micro-benchmarks ---

// BenchmarkInterpreterTransfer measures raw single-transition execution
// (the unit the shards parallelise).
func BenchmarkInterpreterTransfer(b *testing.B) {
	in := mustInterp(b)
	st := eval.NewMemState(in.Checked().FieldTypes)
	if err := st.InitFrom(in); err != nil {
		b.Fatal(err)
	}
	owner := chain.AddrFromUint(1)
	if err := eval.SetAt(st, "balances", []value.Value{owner.Value()}, value.Uint128(1<<40)); err != nil {
		b.Fatal(err)
	}
	to := chain.AddrFromUint(2)
	args := map[string]value.Value{"to": to.Value(), "amount": value.Uint128(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &eval.Context{
			Sender: owner.Value(), Origin: owner.Value(),
			Amount: value.Uint128(0), BlockNumber: big.NewInt(1), State: st,
		}
		if _, err := in.Run(ctx, "Transfer", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureDerive measures Algorithm 3.1 (the per-query cost
// that makes the Fig. 13 enumeration expensive at mining time).
func BenchmarkSignatureDerive(b *testing.B) {
	chk := contracts.MustParse("FungibleToken")
	a, err := analysis.New(chk)
	if err != nil {
		b.Fatal(err)
	}
	sums, err := a.AnalyzeAll()
	if err != nil {
		b.Fatal(err)
	}
	q := signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances", "allowances"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Derive(sums, q); err != nil {
			b.Fatal(err)
		}
	}
}
