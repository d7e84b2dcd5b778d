package node

import (
	"math/big"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/dispatch"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
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

// TestTransportFaultRecovery drops a third of the shard nodes'
// outbound frames (their MicroBlocks): the DS committee must requeue
// the lost batches and eventually commit everything, and the replicas
// must stay bit-identical to the canonical state.
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
			ShardFaults(LinkFaults{Seed: 42, Drop: 0.35}),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Pace submissions over several epochs: with 3 shards sending one
	// MicroBlock each per epoch at 35% drop, ten epochs make a dropped
	// frame (and its recovery) a statistical certainty.
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
		t.Error("no lost blocks despite 35% frame drop — faults not injected?")
	}
	snap := reg.Snapshot()
	if snap.Counters["wire.frames_dropped"] == 0 {
		t.Error("wire.frames_dropped = 0")
	}
	if snap.Counters["wire.frames_sent"] == 0 {
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

// TestCorruptedFramesRejected corrupts shard MicroBlock payloads in
// transit: the DS decoder must reject them (transport loss recovery),
// never misparse them.
func TestCorruptedFramesRejected(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w),
		ClusterDS(DSCollectTimeout(250*time.Millisecond)),
		ClusterShardNodes(ShardFaults(LinkFaults{Seed: 7, Corrupt: 0.5})),
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
// Config.FaultEscalation of them the committee must stop routing to it
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

	escalation := cluster.DS.Net().Config().FaultEscalation
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
