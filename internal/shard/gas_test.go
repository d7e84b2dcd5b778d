package shard_test

import (
	"fmt"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
)

// gasBuckets sums committed gas per (epoch, shard) over the given
// transaction ids' receipts.
func gasBuckets(t *testing.T, recs receiptBook, ids []uint64) map[string]uint64 {
	t.Helper()
	buckets := make(map[string]uint64)
	for _, id := range ids {
		rec := recs[id]
		if rec == nil {
			t.Fatalf("tx %d has no receipt", id)
		}
		buckets[fmt.Sprintf("epoch %d shard %d", rec.Epoch, rec.Shard)] += rec.GasUsed
	}
	return buckets
}

// TestShardBlockNeverExceedsGasLimit is the regression for the
// MicroBlock gas-accounting bug: the old loop admitted a transaction
// whenever gasUsed was merely below the limit, so a block with limit
// 100 could commit ~120 gas. Every (epoch, shard) bucket must now stay
// within ShardGasLimit, with the overflowing transaction deferred.
func TestShardBlockNeverExceedsGasLimit(t *testing.T) {
	recs := receiptBook{}
	const limit = 100
	net, contract, users := deployFT(t, 1, 2, true, shard.WithGasLimits(limit, limit))
	var ids []uint64
	for n := uint64(1); n <= 10; n++ {
		ids = append(ids, net.Submit(transferTx(users[0], users[1], contract, n, 1)))
	}
	for epochs := 0; net.MempoolSize() > 0; epochs++ {
		if _, err := recs.add(net.RunEpoch()); err != nil {
			t.Fatal(err)
		}
		if epochs > 30 {
			t.Fatal("mempool never drained")
		}
	}
	full := 0
	for bucket, gas := range gasBuckets(t, recs, ids) {
		if gas > limit {
			t.Errorf("%s committed %d gas, above the %d-gas block limit", bucket, gas, limit)
		}
		if gas > limit/2 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no block came close to the gas limit; the bound was never exercised")
	}
	for _, id := range ids {
		if rec := recs[id]; !rec.Success {
			t.Errorf("tx %d failed: %s", id, rec.Error)
		}
	}
}

// TestDSBlockNeverExceedsGasLimit: the same bound for the DS
// committee's FinalBlock. An unsharded contract call from a sender on
// a different home shard routes to DS (baseline strategy), so the
// owner's transfers exercise the DS gas loop.
func TestDSBlockNeverExceedsGasLimit(t *testing.T) {
	recs := receiptBook{}
	const limit = 100
	for n := 2; n <= 5; n++ {
		net, contract, users := deployFT(t, n, 2, false, shard.WithGasLimits(1_000_000, limit))
		if chain.ShardOf(users[0], n) == chain.ShardOf(contract, n) {
			continue // owner co-located with the contract: stays in-shard
		}
		var ids []uint64
		for nonce := uint64(1); nonce <= 10; nonce++ {
			ids = append(ids, net.Submit(transferTx(users[0], users[1], contract, nonce, 1)))
		}
		for epochs := 0; net.MempoolSize() > 0; epochs++ {
			if _, err := recs.add(net.RunEpoch()); err != nil {
				t.Fatal(err)
			}
			if epochs > 30 {
				t.Fatal("mempool never drained")
			}
		}
		for _, id := range ids {
			rec := recs[id]
			if rec.Shard != -1 {
				t.Fatalf("tx %d executed on shard %d, want the DS committee", id, rec.Shard)
			}
			if !rec.Success {
				t.Errorf("tx %d failed: %s", id, rec.Error)
			}
		}
		for bucket, gas := range gasBuckets(t, recs, ids) {
			if gas > limit {
				t.Errorf("%s committed %d gas, above the %d-gas FinalBlock limit", bucket, gas, limit)
			}
		}
		return
	}
	t.Fatal("no shard count separated the owner from the contract")
}

// TestOversizedCallFailsTerminally: a call that cannot fit even a
// fresh epoch's full gas limit must fail terminally (charged up to the
// block limit) instead of deferring forever.
func TestOversizedCallFailsTerminally(t *testing.T) {
	recs := receiptBook{}
	const limit = 10 // well below one FT transfer's cost
	net, contract, users := deployFT(t, 1, 2, true, shard.WithGasLimits(limit, limit))
	id := net.Submit(transferTx(users[0], users[1], contract, 1, 1))
	stats, err := recs.add(net.RunEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 {
		t.Errorf("epoch stats %+v, want one terminal failure", stats)
	}
	if net.MempoolSize() != 0 {
		t.Errorf("oversized call deferred (%d pending), want terminal rejection", net.MempoolSize())
	}
	rec := recs[id]
	if rec == nil || rec.Success {
		t.Fatalf("receipt %+v, want terminal failure", rec)
	}
	if rec.GasUsed > limit {
		t.Errorf("terminal failure charged %d gas, above the %d-gas block limit", rec.GasUsed, limit)
	}
}
