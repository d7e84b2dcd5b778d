package node

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// TestFinishedEpochIsCollected: between epochs no role of a cluster
// keeps an object of an epoch it has finished. A busy epoch's
// transactions, submitted to the committee's network as
// BenchmarkBlockFanout submits them, are garbage once one more, empty
// tick has run. The committee's dispatched queues used to keep them
// until a later epoch overwrote their slots.
func TestFinishedEpochIsCollected(t *testing.T) {
	const txs = 200
	w := workload.FTTransferDisjoint()
	w.Users = 40
	genesis := func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	src, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(genesis)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var collected atomic.Int64
	submitCollectable(cluster, w, src, txs, &collected)
	for _, want := range []int{txs, 0} {
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := res.Stats.Committed; got != want {
			t.Fatalf("epoch %d committed %d transactions, want %d", res.Stats.Epoch, got, want)
		}
	}
	giveUp := time.After(5 * time.Second)
	for collected.Load() < txs {
		runtime.GC()
		select {
		case <-giveUp:
			t.Fatalf("%d of %d transactions of a finished epoch are still reachable", txs-collected.Load(), txs)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// submitCollectable submits n transactions of w to the committee's
// network, each counted in collected once the collector frees it. It
// keeps no reference to them.
func submitCollectable(cluster *Cluster, w *workload.Workload, src *workload.Env, n int, collected *atomic.Int64) {
	for i := 0; i < n; i++ {
		tx := w.Next(src)
		runtime.SetFinalizer(tx, func(*chain.Tx) { collected.Add(1) })
		cluster.DS.Net().Submit(tx)
	}
}
