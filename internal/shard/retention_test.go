package shard_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
)

// TestFinishedEpochLeavesNothing: between epochs the network keeps no
// object of the epoch it finished. Every pooled shard overlay is
// rewound once ExecuteShard returns, and every transaction the epoch
// dispatched is collected once its submitter drops it. The dispatched
// queues used to keep them until a later epoch overwrote their slots,
// and the pooled overlays their writes until a later epoch took them
// again.
func TestFinishedEpochLeavesNothing(t *testing.T) {
	const users = 40
	net, contract, addrs := deployFT(t, 3, users, true)
	// The owner, user 0, funds the others, so that every shard's run of
	// the epoch under test writes.
	for i, to := range addrs[1:] {
		net.Submit(transferTx(addrs[0], to, contract, uint64(i+1), 1000))
	}
	if _, err := net.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int64
	submitted := submitCollectable(net, contract, addrs[1:], &collected)

	run := net.BeginEpoch()
	blocks := make([]*shard.MicroBlock, len(run.Queues()))
	for s, q := range run.Queues() {
		mb, err := net.ExecuteShard(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if n := net.TouchedPooledOverlays(); n != 0 {
			t.Fatalf("%d pooled overlays hold writes after shard %d's run", n, s)
		}
		blocks[s] = mb
	}
	stats, _, err := net.FinalizeEpoch(run, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != submitted || stats.DSCommitted != 0 {
		t.Fatalf("epoch committed %d transactions, %d of them on DS, want %d, all on shards", stats.Committed, stats.DSCommitted, submitted)
	}
	for s, n := range stats.PerShard {
		if n == 0 {
			t.Fatalf("shard %d committed nothing: its pooled overlay was not exercised", s)
		}
	}
	run, blocks, stats = nil, nil, nil

	giveUp := time.After(5 * time.Second)
	for collected.Load() < int64(submitted) {
		runtime.GC()
		select {
		case <-giveUp:
			t.Fatalf("%d of %d transactions of a finished epoch are still reachable", int64(submitted)-collected.Load(), submitted)
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(net) // a network that is itself garbage would free them anyway
}

// submitCollectable submits one transfer from each user, each
// transaction counted in collected once the collector frees it, and
// returns how many it submitted. It keeps no reference to them.
func submitCollectable(net *shard.Network, contract chain.Address, addrs []chain.Address, collected *atomic.Int64) int {
	for i, from := range addrs {
		tx := transferTx(from, addrs[(i+1)%len(addrs)], contract, 1, 1)
		runtime.SetFinalizer(tx, func(*chain.Tx) { collected.Add(1) })
		net.Submit(tx)
	}
	return len(addrs)
}
