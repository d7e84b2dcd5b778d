package shard_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
)

// The pipeline knows one loss: a nil MicroBlock handed to
// FinalizeEpoch. These tests make the losses with a fault.Plan, as the
// throughput harness does: runEpochLosing drives the three stage calls,
// skips every shard the plan crashes, runs every shard it drops or
// corrupts and then throws the block away, and passes nil for each.

// runEpochLosing runs one epoch of net through BeginEpoch, ExecuteShard
// and FinalizeEpoch under plan at the run's epoch (a nil plan loses
// nothing). A crashed shard is not executed; a dropped or corrupted
// shard runs its whole queue, but FinalizeEpoch sees nil in its slot.
// It returns every block a shard sealed, lost or not.
func runEpochLosing(net *shard.Network, plan *fault.Plan) (*shard.EpochStats, []*shard.MicroBlock, error) {
	run := net.BeginEpoch()
	sealed := make([]*shard.MicroBlock, len(run.Queues()))
	arrived := make([]*shard.MicroBlock, len(run.Queues()))
	for s, q := range run.Queues() {
		kind := plan.At(run.Epoch(), s).Kind
		if kind == fault.CrashMidEpoch {
			continue
		}
		mb, err := net.ExecuteShard(s, q)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		sealed[s] = mb
		if !kind.Lost() {
			arrived[s] = mb
		}
	}
	stats, _, err := net.FinalizeEpoch(run, arrived)
	return stats, sealed, err
}

// lossyEpoch is runEpochLosing shaped like RunEpoch, for receiptBook.add.
func lossyEpoch(net *shard.Network, plan *fault.Plan) (*shard.EpochStats, error) {
	stats, _, err := runEpochLosing(net, plan)
	return stats, err
}

// faultEvents captures the loss-recovery trace events (everything
// else is a no-op), so tests can assert the pipeline's bookkeeping
// without parsing a journal.
type faultEvents struct {
	obs.Nop
	mu          sync.Mutex
	faults      []string
	escalations []string
}

func (f *faultEvents) ShardFault(epoch uint64, s, lost int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fmt.Sprintf("e%d/s%d/lost=%d", epoch, s, lost))
}

func (f *faultEvents) ShardEscalated(epoch uint64, s, txs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.escalations = append(f.escalations, fmt.Sprintf("e%d/s%d/txs=%d", epoch, s, txs))
}

// TestFaultPlanDeterminism: under a seeded generated fault plan the
// pipeline stays bit-identical across repeated runs. Lost batches,
// requeues and escalations must all replay exactly.
func TestFaultPlanDeterminism(t *testing.T) {
	spec := fault.Spec{CrashProb: 0.2, DropProb: 0.1, CorruptProb: 0.1, StraggleProb: 0.2}
	plan := fault.Generate(7, spec)
	reg := obs.NewRegistry()
	first := runPipelineLosing(t, namedWorkload(t, "FT transfer", 1), plan,
		shard.WithRegistry(reg))
	if lost := reg.Snapshot().Counters["fault.lost_txs"]; lost == 0 {
		t.Fatal("fault plan injected no block losses; the determinism check is vacuous")
	}
	for run := 0; run < 2; run++ {
		again := runPipelineLosing(t, namedWorkload(t, "FT transfer", 1), plan)
		diffResults(t, fmt.Sprintf("rerun %d", run), first, again)
	}
}

// TestEmptyFaultPlanMatchesGoldenTrace: the golden epochs driven through
// BeginEpoch, ExecuteShard and FinalizeEpoch with no fault plan, losing
// nothing, leave the normalised JSONL trace byte-identical to the
// recorded golden, which RunEpoch writes. The pipeline reads no plan, so
// the nil plan is the one case left.
func TestEmptyFaultPlanMatchesGoldenTrace(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "trace_golden.jsonl"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	t.Run("nil", func(t *testing.T) {
		if got := goldenTraceBy(t, func(net *shard.Network) error {
			_, err := lossyEpoch(net, nil)
			return err
		}); got != string(want) {
			t.Errorf("the stage calls drift from RunEpoch's golden trace.\nGot:\n%s\nWant:\n%s", got, want)
		}
	})
}

// TestCrashedShardRecovers: a crash loses the shard's whole batch —
// no receipts, no state change, one lost block counted — and the
// batch, requeued at the tail of the Submit queue, commits in the next
// epoch (regression for silently dropping lost work).
func TestCrashedShardRecovers(t *testing.T) {
	recs := receiptBook{}
	ev := &faultEvents{}
	plan := fault.New().Set(1, 0, fault.Directive{Kind: fault.CrashMidEpoch})
	net := shard.NewNetwork(shard.WithShards(2), shard.WithRecorder(ev))
	users := make([]chain.Address, 8)
	for i := range users {
		users[i] = chain.AddrFromUint(uint64(i + 1))
		net.CreateUser(users[i], 1_000_000)
	}

	// One native payment per user, routed to the sender's home shard:
	// both shards get traffic.
	var ids []uint64
	var lostWant int
	for i, u := range users {
		ids = append(ids, net.Submit(payTx(u, users[(i+1)%len(users)], 1, 10)))
		if chain.ShardOf(u, 2) == 0 {
			lostWant++
		}
	}
	if lostWant == 0 || lostWant == len(users) {
		t.Fatalf("test users all map to one shard (lost=%d of %d)", lostWant, len(users))
	}

	stats, err := recs.add(lossyEpoch(net, plan))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lost != lostWant {
		t.Errorf("epoch 1 Lost = %d, want %d", stats.Lost, lostWant)
	}
	if stats.LostBlocks != 1 {
		t.Errorf("epoch 1 LostBlocks = %d, want 1", stats.LostBlocks)
	}
	if stats.Committed != len(users)-lostWant {
		t.Errorf("epoch 1 committed = %d, want the healthy shard's %d", stats.Committed, len(users)-lostWant)
	}
	if want := []string{fmt.Sprintf("e1/s0/lost=%d", lostWant)}; len(ev.faults) != 1 || ev.faults[0] != want[0] {
		t.Errorf("fault events = %v, want %v", ev.faults, want)
	}
	if got := net.MempoolSize(); got != lostWant {
		t.Errorf("Submit queue after the loss = %d, want %d", got, lostWant)
	}
	// The lost transactions have no receipts yet.
	pending := 0
	for _, id := range ids {
		if recs[id] == nil {
			pending++
		}
	}
	if pending != lostWant {
		t.Errorf("pending receipts = %d, want %d", pending, lostWant)
	}

	// Epoch 2 is healthy: the requeued batch commits and every
	// transaction ends with a successful receipt.
	stats2, err := recs.add(lossyEpoch(net, plan))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Lost != 0 || stats2.LostBlocks != 0 {
		t.Errorf("epoch 2 unexpectedly faulted: %+v", stats2)
	}
	for _, id := range ids {
		if rec := recs[id]; rec == nil || !rec.Success {
			t.Errorf("tx %d: receipt %+v after recovery", id, rec)
		}
	}
}

// TestRepeatedFaultsEscalateToDS: after FaultEscalation consecutive
// lost blocks the dispatcher reroutes the shard's traffic to DS
// execution; once the shard seals a healthy (empty) block the mask
// clears and placement returns to the shard.
func TestRepeatedFaultsEscalateToDS(t *testing.T) {
	recs := receiptBook{}
	ev := &faultEvents{}
	plan := fault.New().
		Set(1, 0, fault.Directive{Kind: fault.DropMicroBlock}).
		Set(2, 0, fault.Directive{Kind: fault.CorruptDelta})
	net := shard.NewNetwork(shard.WithShards(2),
		shard.WithRecorder(ev), shard.WithFaultEscalation(2))

	var shard0, other chain.Address
	for i := uint64(1); i <= 16; i++ {
		u := chain.AddrFromUint(i)
		net.CreateUser(u, 1_000_000)
		switch {
		case shard0 == (chain.Address{}) && chain.ShardOf(u, 2) == 0:
			shard0 = u
		case other == (chain.Address{}) && chain.ShardOf(u, 2) == 1:
			other = u
		}
	}
	if shard0 == (chain.Address{}) || other == (chain.Address{}) {
		t.Fatal("could not find users on both shards")
	}

	// Epochs 1 and 2 lose shard 0's block each time (nonces 1 and 2
	// requeue and retry).
	nonce := uint64(0)
	submit := func() uint64 {
		nonce++
		return net.Submit(payTx(shard0, other, nonce, 10))
	}
	first := submit()
	for e := 1; e <= 2; e++ {
		stats, err := recs.add(lossyEpoch(net, plan))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Lost == 0 {
			t.Fatalf("epoch %d lost nothing", e)
		}
		if stats.Escalated != 0 {
			t.Fatalf("epoch %d escalated before the streak bound: %+v", e, stats)
		}
	}

	// Epoch 3: streak reached the bound, shard 0 is down. The requeued
	// transfer and a fresh one both execute on the DS committee.
	second := submit()
	stats, err := recs.add(lossyEpoch(net, plan))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Escalated == 0 {
		t.Fatalf("epoch 3 rerouted nothing: %+v", stats)
	}
	if len(ev.escalations) == 0 {
		t.Fatal("no shard_escalated event")
	}
	for _, id := range []uint64{first, second} {
		rec := recs[id]
		if rec == nil || !rec.Success {
			t.Fatalf("tx %d after escalation: %+v", id, rec)
		}
		if rec.Shard != -1 {
			t.Errorf("tx %d executed on shard %d, want the DS committee (-1)", id, rec.Shard)
		}
	}

	// Shard 0 sealed a healthy empty block in epoch 3, so the streak
	// reset: epoch 4 routes its traffic back onto the shard.
	third := submit()
	if _, err := recs.add(lossyEpoch(net, plan)); err != nil {
		t.Fatal(err)
	}
	rec := recs[third]
	if rec == nil || !rec.Success {
		t.Fatalf("tx %d after recovery: %+v", third, rec)
	}
	if rec.Shard != 0 {
		t.Errorf("recovered shard placement = %d, want 0", rec.Shard)
	}
}

// TestShardEscalatedCountsPerShard: with two of three shards down, each
// shard_escalated event carries the transactions rerouted from its own
// shard, not the epoch's total, so the events sum to Escalated.
func TestShardEscalatedCountsPerShard(t *testing.T) {
	ev := &faultEvents{}
	net := shard.NewNetwork(shard.WithShards(3),
		shard.WithRecorder(ev), shard.WithFaultEscalation(1))
	homed := map[int]chain.Address{}
	for i := uint64(1); len(homed) < 3; i++ {
		u := chain.AddrFromUint(i)
		net.CreateUser(u, 1_000_000)
		if _, seen := homed[chain.ShardOf(u, 3)]; !seen {
			homed[chain.ShardOf(u, 3)] = u
		}
	}

	// Epoch 1 loses the blocks of shards 0 and 1, so both are down in
	// epoch 2.
	crash := fault.Directive{Kind: fault.CrashMidEpoch}
	plan := fault.New().Set(net.Epoch, 0, crash).Set(net.Epoch, 1, crash)
	if _, err := lossyEpoch(net, plan); err != nil {
		t.Fatal(err)
	}
	epoch := net.Epoch
	perShard := map[int]int{0: 1, 1: 3, 2: 2}
	for s, n := range perShard {
		for nonce := 1; nonce <= n; nonce++ {
			net.Submit(payTx(homed[s], homed[(s+1)%3], uint64(nonce), 10))
		}
	}
	stats, err := lossyEpoch(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("e%d/s0/txs=%d", epoch, perShard[0]),
		fmt.Sprintf("e%d/s1/txs=%d", epoch, perShard[1]),
	}
	if fmt.Sprint(ev.escalations) != fmt.Sprint(want) {
		t.Errorf("shard_escalated events %v, want %v", ev.escalations, want)
	}
	if stats.Escalated != perShard[0]+perShard[1] {
		t.Errorf("Escalated = %d, want the %d transactions of shards 0 and 1", stats.Escalated, perShard[0]+perShard[1])
	}
}

// TestFaultLiveness is the reconciliation bar: under a hostile seeded
// plan with every fault kind active, every submitted transaction must
// still commit — nothing may be lost in the crash/requeue/escalate
// cycle — and the Submit queue must drain.
func TestFaultLiveness(t *testing.T) {
	recs := receiptBook{}
	plan := fault.Generate(1234, fault.Spec{
		CrashProb: 0.25, DropProb: 0.1, CorruptProb: 0.1, StraggleProb: 0.2,
	})
	reg := obs.NewRegistry()
	net, contract, users := deployFT(t, 4, 12, true,
		shard.WithRegistry(reg), shard.WithFaultEscalation(2))

	var ids []uint64
	epochs := 0
	submit := func(tx *chain.Tx) {
		ids = append(ids, net.Submit(tx))
	}
	drain := func() {
		for net.MempoolSize() > 0 {
			if _, err := recs.add(lossyEpoch(net, plan)); err != nil {
				t.Fatal(err)
			}
			if epochs++; epochs > 200 {
				t.Fatalf("Submit queue never drained under faults (%d pending)", net.MempoolSize())
			}
		}
	}

	// The FT owner fans tokens out to everyone (only users[0] holds the
	// initial supply), then each user circulates them for three rounds —
	// all under the hostile fault schedule.
	ownerNonce := uint64(0)
	for _, u := range users[1:] {
		ownerNonce++
		submit(transferTx(users[0], u, contract, ownerNonce, 100))
	}
	drain()
	for round := uint64(1); round <= 3; round++ {
		for i, u := range users {
			nonce := round
			if i == 0 {
				nonce += ownerNonce
			}
			submit(transferTx(u, users[(i+1)%len(users)], contract, nonce, 1))
		}
		drain()
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.lost_txs"] == 0 {
		t.Fatal("no transactions were lost to faults; the liveness check is vacuous")
	}
	for _, id := range ids {
		rec := recs[id]
		if rec == nil {
			t.Errorf("tx %d: submitted but never terminally processed", id)
			continue
		}
		if !rec.Success {
			t.Errorf("tx %d: failed: %s", id, rec.Error)
		}
	}
}
