package node

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// TestLookupReceiptCapHolds floods the lookup with more receipts than
// its cap: the cache must hold exactly the cap's worth of newest
// receipts, evict the oldest, and report its size through the gauge.
func TestLookupReceiptCapHolds(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	const capN = 10
	cluster, err := NewCluster(testGenesis(w),
		clusterLookup(lookupReceiptCap(capN), LookupObs(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const epochs, perEpoch = 5, 8
	var first, last uint64
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			id, err := cluster.Lookup.SubmitTx(w.Next(envSrc))
			if err != nil {
				t.Fatal(err)
			}
			if first == 0 {
				first = id
			}
			last = id
		}
		if res := cluster.Tick(); res.Err != nil {
			t.Fatalf("epoch %d: %v", e, res.Err)
		}
	}
	// FinalBlocks reach the lookup asynchronously but in order: once the
	// last receipt is visible, all 40 have been processed.
	if cluster.Lookup.WaitReceipt(last, 5*time.Second) == nil {
		t.Fatalf("receipt for tx %d never arrived", last)
	}
	if r := cluster.Lookup.Receipt(first); r != nil {
		t.Errorf("oldest receipt (tx %d) survived past the cap: %+v", first, r)
	}
	if g := reg.Snapshot().Gauges["node.lookup_receipts"]; g != capN {
		t.Errorf("node.lookup_receipts = %d, want %d", g, capN)
	}
}

// TestClusterRefusesPagedStateDir: a committee directory written by the
// retired paged store (a pages/ subdirectory beside a journal its
// flushes truncated) stops the cluster with store.ErrPagedState instead
// of booting every role at genesis.
func TestClusterRefusesPagedStateDir(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "ds")
	if err := os.MkdirAll(filepath.Join(ds, "pages"), 0o777); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{filepath.Join("pages", "pages.idx"), "journal.log"} {
		if err := os.WriteFile(filepath.Join(ds, name), nil, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCluster(testGenesis(testWorkload()), ClusterStateDir(dir, 2))
	if err == nil {
		c.Close()
	}
	if !errors.Is(err, store.ErrPagedState) {
		t.Fatalf("NewCluster over a paged committee directory: %v, want ErrPagedState", err)
	}
}

// TestClusterKillRestartResumes is the node-mode persistence proof: a
// cluster with a state directory is stopped and rebuilt, with its
// on-disk state deliberately damaged in between — one shard's journal
// torn mid-frame, another shard's directory wiped entirely. The
// rebuilt cluster must recover (torn tail truncated) and continue the
// same transaction stream with bit-identical roots and transaction ids
// against the uninterrupted monolithic pipeline, each replica reading
// only its own directory: the torn one catches up from the committee's
// journal over the wire, the wiped one from a state image. A third
// start must find every replica on the committee's root straight from
// its own directory, before any tick.
func TestClusterKillRestartResumes(t *testing.T) {
	w := testWorkload()
	envMono, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	persistent := ClusterStateDir(dir, 2)

	drive := func(cluster *Cluster, epochs, perEpoch int) {
		t.Helper()
		for e := 0; e < epochs; e++ {
			for i := 0; i < perEpoch; i++ {
				idM := envMono.Net.Submit(w.Next(envMono))
				idC, err := cluster.Lookup.SubmitTx(w.Next(envSrc))
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				if idM != idC {
					t.Fatalf("tx id skew: monolithic %d, cluster %d", idM, idC)
				}
			}
			if _, err := envMono.Net.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			res := cluster.Tick()
			if res.Err != nil {
				t.Fatalf("tick: %v", res.Err)
			}
			if want := envMono.Net.StateRoot(); res.Root != want {
				t.Fatalf("state root diverged:\n  cluster    %s\n  monolithic %s", res.Root, want)
			}
		}
	}

	a, err := NewCluster(testGenesis(w), persistent)
	if err != nil {
		t.Fatal(err)
	}
	drive(a, 3, 10)
	a.Close()

	// Damage the stopped cluster's disk state: tear shard-0's journal
	// tail (crash mid-append) and wipe shard-1's directory (lost node).
	// With snapshots every 2 epochs and the last checkpoint off the
	// boundary, both journals hold at least the final epoch's frame.
	j0 := filepath.Join(dir, "shard-0", "journal.log")
	fi, err := os.Stat(j0)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("shard-0 journal empty — the torn-tail scenario needs a tail to tear")
	}
	if err := os.Truncate(j0, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard-1")); err != nil {
		t.Fatal(err)
	}

	// Restart: every role recovers from its own directory; shard-0 and
	// shard-1 are behind and catch up over the wire on the first epoch's
	// batch. The stream continues where it left off — matching ids prove
	// NextTxID survived the restart.
	reg := obs.NewRegistry()
	b, err := NewCluster(testGenesis(w), persistent, ClusterShardNodes(ShardObs(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.DS.Net().StateRoot(), envMono.Net.StateRoot(); got != want {
		t.Fatalf("recovered committee root %s, want %s", got, want)
	}
	drive(b, 2, 10)
	want := b.DS.Net().StateRoot()
	b.Close()
	if got := reg.Snapshot().Counters["node.state_images"]; got != 1 {
		t.Errorf("node.state_images = %d, want 1: the wiped shard-1's", got)
	}
	for _, s := range b.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: replica error: %v", s.name, err)
		}
		if got := s.Net().StateRoot(); got != want {
			t.Errorf("%s: replica root %s, want %s", s.name, got, want)
		}
	}

	// A third start with no new traffic lands on the same state again:
	// the second run's epochs were journaled too.
	cCluster, err := NewCluster(testGenesis(w), persistent)
	if err != nil {
		t.Fatal(err)
	}
	defer cCluster.Close()
	if got := cCluster.DS.Net().StateRoot(); got != want {
		t.Fatalf("third start root %s, want %s", got, want)
	}
	if got, wantCp := cCluster.DS.Net().Checkpoint(), envMono.Net.Checkpoint(); got != wantCp {
		t.Fatalf("third start checkpoint %+v, want %+v", got, wantCp)
	}
	for _, s := range cCluster.Shards {
		if got := s.Net(); got.Epoch != envMono.Net.Epoch || got.StateRoot() != want {
			t.Errorf("%s: third start at epoch %d root %s, want epoch %d root %s",
				s.name, got.Epoch, got.StateRoot(), envMono.Net.Epoch, want)
		}
	}
}
