package shard_test

import (
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// TestIncrementalRootMatchesRecompute is the incremental trie's
// differential proof: after every committed epoch, across every
// evaluation contract and stream seed, the incrementally maintained
// state root must equal a from-scratch recomputation over the full
// network state. The incremental root is
// what ships (O(delta) per epoch); the recompute is the test-only
// oracle (O(state)) — any divergence means a delta was applied to the
// state without reaching the trie, or vice versa.
func TestIncrementalRootMatchesRecompute(t *testing.T) {
	workloads := []string{
		"FT transfer",        // FungibleToken: map mutations, transfers
		"NFT mint",           // NonfungibleToken: fresh map keys each tx
		"CF donate",          // Crowdfunding: mixed scalar + map updates
		"ProofIPFS register", // registry: insert-heavy
		"UD bestow",          // domain records: nested keypaths
	}
	seeds := []int64{1, 7, 42}

	for _, name := range workloads {
		for _, seed := range seeds {
			w := namedWorkload(t, name, seed)
			env, err := workload.Provision(w, true,
				shard.WithShards(8),
				shard.WithGasLimits(200_000, 200_000),
			)
			if err != nil {
				t.Fatal(err)
			}
			// Provisioning itself ran setup epochs: check the baseline
			// before any randomized traffic.
			if inc, full := env.Net.StateRoot(), env.Net.RecomputeStateRoot(); inc != full {
				t.Fatalf("%s/seed%d: post-genesis root skew:\n  incremental %s\n  recomputed  %s",
					name, seed, inc, full)
			}
			const epochs, txsPerEpoch = 2, 300
			for e := 0; e < epochs; e++ {
				env.TopUp(w, txsPerEpoch)
				if _, err := env.Net.RunEpoch(); err != nil {
					t.Fatalf("%s/seed%d: epoch %d: %v", name, seed, e, err)
				}
				if inc, full := env.Net.StateRoot(), env.Net.RecomputeStateRoot(); inc != full {
					t.Fatalf("%s/seed%d: epoch %d root skew:\n  incremental %s\n  recomputed  %s",
						name, seed, e, inc, full)
				}
			}
		}
	}
}
