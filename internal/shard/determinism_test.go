package shard_test

import (
	"bytes"
	"fmt"
	"testing"

	"cosplit/internal/fault"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// The pipeline has one execution mode and must be a function of its
// inputs: two networks provisioned from the same seed and fed the same
// stream seal the same MicroBlocks and reach the same state roots and
// receipts. The suites that compare engines (compiled vs interpreted)
// and fault plans build on the same runPipeline/diffResults pair.

type pipelineResult struct {
	root     string
	receipts map[uint64]string
	shardGas map[int]uint64
	// blocks are the sealed MicroBlocks' wire bytes, epoch by epoch in
	// shard order, with the host-measured ExecTime zeroed.
	blocks [][]byte
}

// namedWorkload fetches a fresh workload instance (generator state
// lives in the provisioned Env, but Users/Seed tweaks must not leak
// between runs) under the given stream seed.
func namedWorkload(t *testing.T, name string, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = seed
	if w.Users > 300 {
		// CF donate provisions 100k donor accounts for throughput runs;
		// determinism needs population diversity, not scale.
		w.Users = 300
	}
	return w
}

// runPipeline provisions a fresh environment for the workload and
// drives it through several epochs, stage by stage as RunEpoch does, so
// the MicroBlocks can be kept.
func runPipeline(t *testing.T, w *workload.Workload, extra ...shard.Option) *pipelineResult {
	t.Helper()
	return runPipelineLosing(t, w, nil, extra...)
}

// runPipelineLosing is runPipeline with the blocks plan loses withheld
// from FinalizeEpoch (see runEpochLosing). It keeps every block a shard
// sealed, including the ones that never arrived.
func runPipelineLosing(t *testing.T, w *workload.Workload, plan *fault.Plan, extra ...shard.Option) *pipelineResult {
	t.Helper()
	opts := append([]shard.Option{
		shard.WithShards(8),
		shard.WithGasLimits(200_000, 200_000),
	}, extra...)
	env, err := workload.Provision(w, true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	var sealed [][]byte
	recs := receiptBook{}
	const epochs, txsPerEpoch = 2, 300
	for e := 0; e < epochs; e++ {
		for i := env.Net.MempoolSize(); i < txsPerEpoch; i++ {
			ids = append(ids, env.Net.Submit(w.Next(env)))
		}
		stats, blocks, err := runEpochLosing(env.Net, plan)
		if _, err = recs.add(stats, err); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		for _, mb := range blocks {
			if mb == nil {
				continue
			}
			mb.ExecTime = 0
			b, err := wire.EncodeMicroBlock(mb)
			if err != nil {
				t.Fatalf("epoch %d shard %d: encode MicroBlock: %v", e, mb.Shard, err)
			}
			sealed = append(sealed, b)
		}
	}
	res := &pipelineResult{
		blocks:   sealed,
		root:     env.Net.StateRoot(),
		receipts: make(map[uint64]string, len(ids)),
		shardGas: make(map[int]uint64),
	}
	for _, id := range ids {
		r := recs[id]
		if r == nil {
			res.receipts[id] = "pending"
			continue
		}
		res.receipts[id] = fmt.Sprintf("success=%v gas=%d err=%q shard=%d epoch=%d",
			r.Success, r.GasUsed, r.Error, r.Shard, r.Epoch)
		res.shardGas[r.Shard] += r.GasUsed
	}
	return res
}

// diffResults requires two pipeline runs to agree bit-for-bit.
func diffResults(t *testing.T, mode string, seq, got *pipelineResult) {
	t.Helper()
	if len(seq.blocks) != len(got.blocks) {
		t.Fatalf("%s: MicroBlock counts diverge: reference %d, got %d", mode, len(seq.blocks), len(got.blocks))
	}
	for i := range seq.blocks {
		if !bytes.Equal(seq.blocks[i], got.blocks[i]) {
			t.Errorf("%s: MicroBlock %d (epoch-major, shard order) differs from the reference's", mode, i)
		}
	}
	if seq.root != got.root {
		t.Errorf("%s: state roots diverge: reference %s, got %s", mode, seq.root, got.root)
	}
	if len(seq.receipts) != len(got.receipts) {
		t.Fatalf("%s: receipt counts diverge: reference %d, got %d",
			mode, len(seq.receipts), len(got.receipts))
	}
	mismatches := 0
	for id, want := range seq.receipts {
		if g := got.receipts[id]; g != want {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s: tx %d: reference %s, got %s", mode, id, want, g)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("%s: ... and %d more receipt mismatches", mode, mismatches-5)
	}
	for s, want := range seq.shardGas {
		if g := got.shardGas[s]; g != want {
			t.Errorf("%s: shard %d gas diverges: reference %d, got %d", mode, s, want, g)
		}
	}
}

// TestCrossModeDeterminism runs every evaluation contract's workload
// under three stream seeds on two networks and requires bit-identical
// outcomes: nothing in a run may depend on map order, pointer values
// or the clock. (The name dates from when the second run was a
// different execution mode.)
func TestCrossModeDeterminism(t *testing.T) {
	workloads := []string{
		"FT transfer",        // FungibleToken
		"NFT mint",           // NonfungibleToken
		"CF donate",          // Crowdfunding
		"ProofIPFS register", // ProofIPFS
		"UD bestow",          // UDRegistry
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					first := runPipeline(t, namedWorkload(t, name, seed))
					again := runPipeline(t, namedWorkload(t, name, seed))
					diffResults(t, "second run", first, again)
				})
			}
		})
	}
}
