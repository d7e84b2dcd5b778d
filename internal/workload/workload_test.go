package workload_test

import (
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// smallOpts scales a network down for test runs: generous gas limits.
func smallOpts(n int) []shard.Option {
	return []shard.Option{
		shard.WithShards(n),
		shard.WithGasLimits(1<<40, 1<<40),
	}
}

// TestAllWorkloadsRun provisions every Fig. 14 workload (scaled down)
// in both baseline and CoSplit configurations and checks that a batch
// of generated transactions commits.
func TestAllWorkloadsRun(t *testing.T) {
	for _, proto := range workload.All() {
		name := proto.Name
		for _, sharded := range []bool{false, true} {
			sharded := sharded
			t.Run(name+shardLabel(sharded), func(t *testing.T) {
				w, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w.Users = min(w.Users, 40)
				if name == "CF donate" {
					// Each donor donates at most once; the population
					// must cover the batch.
					w.Users = 120
				}
				if w.SetupSize > 0 {
					w.SetupSize = 200
				}
				env, err := workload.Provision(w, sharded, smallOpts(3)...)
				if err != nil {
					t.Fatalf("Provision: %v", err)
				}
				const batch = 100
				for i := 0; i < batch; i++ {
					env.Net.Submit(w.Next(env))
				}
				committed := 0
				for env.Net.MempoolSize() > 0 {
					stats, err := env.Net.RunEpoch()
					if err != nil {
						t.Fatalf("RunEpoch: %v", err)
					}
					committed += stats.Committed
				}
				// Some workloads legitimately fail a few transactions
				// (e.g. wrap-around NFT transfers); require a solid
				// majority to commit.
				if committed < batch*8/10 {
					t.Errorf("only %d/%d committed", committed, batch)
				}
			})
		}
	}
}

func shardLabel(sharded bool) string {
	if sharded {
		return "/cosplit"
	}
	return "/baseline"
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestWorkloadShapes checks the characteristic routing of the paper's
// key workloads at small scale.
func TestWorkloadShapes(t *testing.T) {
	// FT fund: single source → exactly one shard busy.
	w, _ := workload.ByName("FT fund")
	w.Users = 40
	env, err := workload.Provision(w, true, smallOpts(3)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		env.Net.Submit(w.Next(env))
	}
	stats, err := env.Net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, n := range stats.PerShard {
		if n > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("FT fund used %d shards, want 1 (%v)", busy, stats.PerShard)
	}

	// NFT mint: single source but token-keyed → all shards busy.
	w2, _ := workload.ByName("NFT mint")
	w2.Users = 40
	env2, err := workload.Provision(w2, true, smallOpts(3)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		env2.Net.Submit(w2.Next(env2))
	}
	stats2, err := env2.Net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range stats2.PerShard {
		if n == 0 {
			t.Errorf("NFT mint left shard %d idle: %v", s, stats2.PerShard)
		}
	}

	// ProofIPFS register: most txs need two differently-keyed owners →
	// a large DS share.
	w3, _ := workload.ByName("ProofIPFS register")
	w3.Users = 40
	env3, err := workload.Provision(w3, true, smallOpts(3)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		env3.Net.Submit(w3.Next(env3))
	}
	stats3, err := env3.Net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats3.DSCommitted < 30 {
		t.Errorf("ProofIPFS register DS count = %d of %d, want a large share",
			stats3.DSCommitted, stats3.Committed)
	}
}

// TestNonceTrackingConsistent: generated streams never produce nonce
// rejections when fully processed epoch by epoch.
func TestNonceTrackingConsistent(t *testing.T) {
	w, _ := workload.ByName("FT transfer")
	w.Users = 20
	env, err := workload.Provision(w, true, smallOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			env.Net.Submit(w.Next(env))
		}
		for env.Net.MempoolSize() > 0 {
			stats, err := env.Net.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			rejected += stats.Rejected
		}
	}
	if rejected != 0 {
		t.Errorf("%d transactions rejected (nonce bookkeeping broken?)", rejected)
	}
}
