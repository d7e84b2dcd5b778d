package node

import (
	"math/big"
	"sync"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/dispatch"
	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// testWorkload is a small FT-transfer population: every node replica
// provisions it identically (deterministic genesis).
func testWorkload() *workload.Workload {
	w := workload.FTTransfer()
	w.Users = 40
	return w
}

func testGenesis(w *workload.Workload) Genesis {
	return func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
}

// TestCrossModeStateRoots is the tentpole's acceptance test: the same
// transaction stream driven through the monolithic shard.Network and
// through byte-shipped epochs over the channel transport commits
// bit-identical state roots every epoch.
func TestCrossModeStateRoots(t *testing.T) {
	w := testWorkload()
	envMono, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	// A second provisioned environment generates the identical stream
	// for the cluster (same seed, same client-side nonce tracking).
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const epochs, perEpoch = 5, 25
	var lastID uint64
	var monoReceipts []*chain.Receipt
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			idM := envMono.Net.Submit(w.Next(envMono))
			idC, err := cluster.Lookup.SubmitTx(w.Next(envSrc))
			if err != nil {
				t.Fatalf("epoch %d: submit over wire: %v", e, err)
			}
			if idM != idC {
				t.Fatalf("epoch %d: tx id skew: monolithic %d, cluster %d", e, idM, idC)
			}
			lastID = idC
		}
		stats, err := envMono.Net.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		monoReceipts = stats.Receipts
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("epoch %d: tick: %v", e, res.Err)
		}
		if res.Stats.LostBlocks != 0 {
			t.Fatalf("epoch %d: unexpected transport losses: %+v", e, res.Stats)
		}
		if want := envMono.Net.StateRoot(); res.Root != want {
			t.Fatalf("epoch %d: state root diverged:\n  cluster    %s\n  monolithic %s", e, res.Root, want)
		}
	}

	// Receipts flow back to the lookup via FinalBlock broadcasts and
	// match the monolithic run's.
	rc := cluster.Lookup.WaitReceipt(lastID, 5*time.Second)
	if rc == nil {
		t.Fatalf("receipt for tx %d never reached the lookup", lastID)
	}
	var rm *chain.Receipt
	for _, r := range monoReceipts {
		if r.TxID == lastID {
			rm = r
		}
	}
	if rm == nil || rc.Success != rm.Success || rc.Shard != rm.Shard || rc.Epoch != rm.Epoch {
		t.Fatalf("receipt skew: cluster %+v, monolithic %+v", rc, rm)
	}
	if epoch, root := cluster.Lookup.Chain(); epoch == 0 || root == "" {
		t.Fatalf("lookup chain view empty: epoch %d, root %q", epoch, root)
	}

	// State queries over the wire agree with canonical state.
	st, found, err := cluster.Lookup.GetAccount(envSrc.Users[0])
	if err != nil || !found {
		t.Fatalf("GetAccount: %v (found=%v)", err, found)
	}
	acc, _ := envMono.Net.Accounts.Get(envSrc.Users[0])
	if st.Balance.Cmp(acc.Balance.Big(new(big.Int))) != 0 || st.Nonce != acc.Nonce {
		t.Fatalf("account skew: wire %+v, monolithic %+v", st, acc)
	}
	resp, err := cluster.Lookup.GetState(envSrc.Contract, "balances", "")
	if err != nil || !resp.Found || resp.Value == nil {
		t.Fatalf("GetState(balances): %+v, %v", resp, err)
	}

	// After shutdown (which drains in-flight FinalBlocks) every shard
	// replica converged on the same root, with no skew or divergence.
	want := cluster.DS.Net().StateRoot()
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}
}

// lossyEpoch drives one epoch of net through the stage calls under
// plan, as the throughput harness does: a crashed shard is not
// executed, a dropped or corrupted one runs and its block is withheld.
func lossyEpoch(net *shard.Network, plan *fault.Plan) (*shard.EpochStats, error) {
	run := net.BeginEpoch()
	blocks := make([]*shard.MicroBlock, len(run.Queues()))
	for s, q := range run.Queues() {
		kind := plan.At(run.Epoch(), s).Kind
		if kind == fault.CrashMidEpoch {
			continue
		}
		mb, err := net.ExecuteShard(s, q)
		if err != nil {
			return nil, err
		}
		if !kind.Lost() {
			blocks[s] = mb
		}
	}
	stats, _, err := net.FinalizeEpoch(run, blocks)
	return stats, err
}

// TestClusterLosesWhatThePlanLoses runs one fault plan two ways: over a
// ChanNetwork cluster, whose shard nodes apply it where they seal, and
// through the in-process stage calls, as the throughput harness applies
// it. Both must lose, requeue, escalate and commit the same at every
// epoch and end on the same root.
func TestClusterLosesWhatThePlanLoses(t *testing.T) {
	w := testWorkload()
	envMono, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 is lost shard.FaultEscalation epochs in a row, once by
	// each lost kind, so it is down at e0+3 and back at e0+4; around it
	// single blocks crash, drop, corrupt and straggle.
	e0 := envMono.Net.Epoch
	at := func(k fault.Kind) fault.Directive { return fault.Directive{Kind: k, Factor: 4} }
	plan := fault.New().
		Set(e0, 0, at(fault.CrashMidEpoch)).Set(e0, 1, at(fault.DropMicroBlock)).Set(e0, 2, at(fault.Straggle)).
		Set(e0+1, 1, at(fault.CorruptDelta)).Set(e0+1, 2, at(fault.CorruptDelta)).
		Set(e0+2, 1, at(fault.CrashMidEpoch)).
		Set(e0+3, 0, at(fault.Straggle)).
		Set(e0+4, 2, at(fault.DropMicroBlock))
	reg := obs.NewRegistry()
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(250*time.Millisecond), DSObs(reg, nil)),
		ClusterShardNodes(ShardFaults(plan)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const epochs, loaded, perEpoch = 8, 5, 10
	var ids []uint64
	corrupt, escalated := 0, 0
	for e := 0; e < epochs; e++ {
		for i := 0; e < loaded && i < perEpoch; i++ {
			envMono.Net.Submit(w.Next(envMono))
			id, err := cluster.Lookup.SubmitTx(w.Next(envSrc))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for s := 0; s < 3; s++ {
			if plan.At(envMono.Net.Epoch, s).Kind == fault.CorruptDelta {
				corrupt++
			}
		}
		want, err := lossyEpoch(envMono.Net, plan)
		if err != nil {
			t.Fatal(err)
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("epoch %d: tick: %v", want.Epoch, res.Err)
		}
		got := res.Stats
		if got.LostBlocks != want.LostBlocks || got.Lost != want.Lost || got.Escalated != want.Escalated || got.Committed != want.Committed {
			t.Fatalf("epoch %d: cluster lost %d blocks (%d txs), escalated %d, committed %d; the plan lost %d (%d), escalated %d, committed %d",
				want.Epoch, got.LostBlocks, got.Lost, got.Escalated, got.Committed, want.LostBlocks, want.Lost, want.Escalated, want.Committed)
		}
		if root := envMono.Net.StateRoot(); res.Root != root {
			t.Fatalf("epoch %d: cluster root %s, in-process root %s", want.Epoch, res.Root, root)
		}
		escalated += got.Escalated
	}
	if escalated == 0 {
		t.Fatal("no transaction escalated; the plan's down shard received none")
	}
	if n := cluster.DS.Net().MempoolSize(); n != 0 {
		t.Fatalf("%d transactions still queued", n)
	}
	for _, id := range ids {
		if r := cluster.Lookup.WaitReceipt(id, 5*time.Second); r == nil {
			t.Fatalf("tx %d: no receipt at the lookup", id)
		}
	}
	if got := reg.Snapshot().Counters["wire.recv_errors"]; got != int64(corrupt) {
		t.Errorf("committee wire.recv_errors = %d, want one per corrupt verdict (%d)", got, corrupt)
	}

	want := cluster.DS.Net().StateRoot()
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}
}

// TestTransportFaultRecovery has a generated fault plan drop a third of
// the shard nodes' MicroBlocks in transit: the DS committee must
// requeue the lost batches and eventually commit everything, and the
// replicas must stay bit-identical to the canonical state.
func TestTransportFaultRecovery(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(250*time.Millisecond)),
		ClusterShardNodes(
			ShardObs(reg, nil),
			ShardFaults(fault.Generate(42, fault.Spec{DropProb: 0.35})),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Pace submissions over several epochs: with 3 shards sealing one
	// MicroBlock each per epoch at 35% drop, ten epochs make a dropped
	// block (and its recovery) a statistical certainty.
	const epochs, perEpoch = 10, 4
	const total = epochs * perEpoch
	submitted, committed, lostBlocks := 0, 0, 0
	for e := 0; e < 60 && committed < total; e++ {
		for i := 0; i < perEpoch && submitted < total; i++ {
			if _, err := cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("tick %d: %v", e, res.Err)
		}
		committed += res.Stats.Committed
		lostBlocks += res.Stats.LostBlocks
	}
	if committed != total {
		t.Fatalf("committed %d of %d after recovery", committed, total)
	}
	if lostBlocks == 0 {
		t.Error("no lost blocks despite a 35% drop plan — faults not injected?")
	}
	if reg.Snapshot().Counters["wire.frames_sent"] == 0 {
		t.Error("wire.frames_sent = 0")
	}

	want := cluster.DS.Net().StateRoot()
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}
}

// TestCorruptedFramesRejected has a generated fault plan corrupt half
// the shard nodes' MicroBlock frames: the DS decoder must reject them
// (counting each as a receive error) and recover the batches, never
// misparse them.
func TestCorruptedFramesRejected(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(250*time.Millisecond), DSObs(reg, nil)),
		ClusterShardNodes(ShardFaults(fault.Generate(7, fault.Spec{CorruptProb: 0.5}))),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const epochs, perEpoch = 6, 5
	const total = epochs * perEpoch
	submitted, committed := 0, 0
	for e := 0; e < 60 && committed < total; e++ {
		for i := 0; i < perEpoch && submitted < total; i++ {
			if _, err := cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("tick %d: %v", e, res.Err)
		}
		committed += res.Stats.Committed
	}
	if committed != total {
		t.Fatalf("committed %d of %d under corruption", committed, total)
	}
	if reg.Snapshot().Counters["wire.recv_errors"] == 0 {
		t.Error("committee wire.recv_errors = 0 despite a 50% corrupt plan")
	}
	want := cluster.DS.Net().StateRoot()
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}
}

// TestDSTakesMicroBlocksOnlyFromTheirShard has a peer that is not shard
// 0's node forge shard 0's MicroBlock — empty, for the current epoch —
// for as long as the committee collects, while shard 0's node is
// closed. The committee must not file it: shard 0's block is lost and
// its batch requeued, not merged away without receipts.
func TestDSTakesMicroBlocksOnlyFromTheirShard(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(100*time.Millisecond), DSObs(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Shards[0].Close()
	for i := 0; i < 30; i++ {
		if _, err := cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
			t.Fatal(err)
		}
	}

	payload, err := wire.EncodeMicroBlock(&shard.MicroBlock{Shard: 0, Epoch: cluster.DS.Net().Epoch, Accounts: chain.NewAccountDelta()})
	if err != nil {
		t.Fatal(err)
	}
	forged := wire.EncodeFrame(wire.MsgMicroBlock, payload)
	forger := cluster.chanNet.Endpoint("forger")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				_ = forger.Send("ds", forged)
			}
		}
	}()
	res := cluster.Tick()
	close(done)
	wg.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if queued := cluster.DS.Net().MempoolSize(); res.Stats.LostBlocks != 1 || res.Stats.Lost == 0 || res.Stats.Lost != queued {
		t.Fatalf("lost %d blocks and %d transactions, %d requeued; want shard 0's block lost and its batch requeued",
			res.Stats.LostBlocks, res.Stats.Lost, queued)
	}
	if reg.Snapshot().Counters["wire.recv_errors"] == 0 {
		t.Error("the forged MicroBlocks were not counted as wire.recv_errors")
	}
}

// TestTCPClusterSmoke runs a short cluster over real TCP sockets and
// cross-checks its roots against the monolithic pipeline.
func TestTCPClusterSmoke(t *testing.T) {
	w := testWorkload()
	envMono, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w), ClusterTCP("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for e := 0; e < 2; e++ {
		for i := 0; i < 15; i++ {
			envMono.Net.Submit(w.Next(envMono))
			if _, err := cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := envMono.Net.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("tick %d: %v", e, res.Err)
		}
		if want := envMono.Net.StateRoot(); res.Root != want {
			t.Fatalf("epoch %d: TCP root %s, monolithic %s", e, res.Root, want)
		}
	}
}

// TestDeadShardEscalatesToDS closes one shard node for good. Its
// MicroBlocks are transport-lost every epoch; after
// shard.FaultEscalation of them the committee must stop routing to it
// and run its traffic itself, so the transactions that were being
// requeued to the dead node commit through the DS route, and every
// surviving role stays on the committee's root.
func TestDeadShardEscalatesToDS(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(100*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const dead, total = 1, 30
	cluster.Shards[dead].Close()
	ids := make([]uint64, total)
	for i := range ids {
		if ids[i], err = cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
			t.Fatal(err)
		}
	}

	escalation := shard.FaultEscalation
	var lost []uint64 // the dead shard's batch, requeued every epoch
	for e := 1; e <= escalation+1; e++ {
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("tick %d: %v", e, res.Err)
		}
		switch {
		case e == 1:
			done := map[uint64]bool{}
			for _, r := range res.Stats.Receipts {
				done[r.TxID] = true
			}
			for _, id := range ids {
				if !done[id] {
					lost = append(lost, id)
				}
			}
			if len(lost) == 0 || res.Stats.Lost != len(lost) {
				t.Fatalf("tick 1: %d transactions without a receipt, stats %+v; the dead shard's queue should be lost", len(lost), res.Stats)
			}
		case e <= escalation:
			if res.Stats.Lost != len(lost) || res.Stats.Escalated != 0 {
				t.Fatalf("tick %d: want the same %d transactions lost again, got %+v", e, len(lost), res.Stats)
			}
		default:
			if res.Stats.Escalated != len(lost) || res.Stats.Lost != 0 || res.Stats.DSCommitted < len(lost) {
				t.Fatalf("tick %d: want %d transactions escalated to the DS committee, got %+v", e, len(lost), res.Stats)
			}
		}
	}
	for _, id := range lost {
		r := cluster.Lookup.WaitReceipt(id, 5*time.Second)
		if r == nil || !r.Success || r.Shard != dispatch.DS {
			t.Fatalf("tx %d: the lookup's receipt %+v, want a success on the DS route", id, r)
		}
	}

	want := cluster.DS.Net().StateRoot()
	if _, root := cluster.Lookup.Chain(); root != want {
		t.Errorf("lookup root %s, want %s", root, want)
	}
	cluster.Close()
	for i, s := range cluster.Shards {
		if i == dead {
			continue
		}
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}
}
