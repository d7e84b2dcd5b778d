package node

import (
	"bytes"
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// dsHeavyScenarios are streams most of whose transactions the DS
// committee executes: ProofIPFS registrations (two ownership
// constraints that rarely agree), a UD registry deployed without a
// signature (every call from another home shard), and the
// Router→FungibleToken message chain.
func dsHeavyScenarios() []goldenScenario {
	ud := workloadScenario("UD bestow", "UD registry baseline")
	ud.genesis = func(opts ...shard.Option) (*shard.Network, error) {
		env, err := workload.Provision(workload.UDBestow(), false, opts...)
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	return []goldenScenario{workloadScenario("ProofIPFS register", "ProofIPFS register"), ud, routerScenario()}
}

// drainRuns returns how many transitions the network's contracts have
// executed since the last drain, on either engine.
func drainRuns(n *shard.Network) (runs uint64) {
	for _, c := range n.Contracts.All() {
		st := c.Compiled.DrainStats()
		runs += st.FastRuns + st.GenericRuns + st.FallbackRuns
	}
	return runs
}

// TestReplicaAppliesWithoutExecuting: a replica fed DS-heavy
// FinalBlocks through the wire codec lands on the committee's root
// without running a single transition — the compiled engine's run
// counters stay at zero, and a replica whose contracts have no engine
// at all applies the same blocks. A journal of those epochs recovers
// to the same root, again without executing, and the sealed blocks the
// committee keeps for catch-up still encode to the bytes they were
// broadcast as after later epochs committed over them.
func TestReplicaAppliesWithoutExecuting(t *testing.T) {
	for _, sc := range dsHeavyScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			genesis := func() *shard.Network {
				net, err := sc.genesis(shard.WithShards(goldenShards))
				if err != nil {
					t.Fatal(err)
				}
				return net
			}
			committee, replica, engineless := genesis(), genesis(), genesis()
			for _, c := range engineless.Contracts.All() {
				c.Interp, c.Compiled = nil, nil
			}
			dir := t.TempDir()
			journal, err := store.Open(dir, store.WithSnapshotEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			committee.AttachStateStore(journal)
			next, err := sc.stream()
			if err != nil {
				t.Fatal(err)
			}

			var sealed []*shard.FinalBlock
			var broadcast [][]byte
			for e := 0; e < goldenEpochs; e++ {
				for i := 0; i < goldenPerEpoch; i++ {
					committee.Submit(next())
				}
				run := committee.BeginEpoch()
				blocks := make([]*shard.MicroBlock, goldenShards)
				for s, q := range run.Queues() {
					if blocks[s], err = committee.ExecuteShard(s, q); err != nil {
						t.Fatal(err)
					}
				}
				stats, fb, err := committee.FinalizeEpoch(run, blocks)
				if err != nil {
					t.Fatal(err)
				}
				if stats.DSCommitted < goldenPerEpoch/3 {
					t.Fatalf("epoch %d: only %d of %d transactions ran on the DS committee", e, stats.DSCommitted, goldenPerEpoch)
				}
				if len(fb.DSDeltas) == 0 {
					t.Fatalf("epoch %d: FinalBlock carries no DS phase", e)
				}
				payload, err := wire.EncodeFinalBlock(fb)
				if err != nil {
					t.Fatal(err)
				}
				sealed, broadcast = append(sealed, fb), append(broadcast, payload)

				drainRuns(replica)
				for name, r := range map[string]*shard.Network{"replica": replica, "engineless replica": engineless} {
					decoded, err := wire.DecodeFinalBlock(payload)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.ApplyFinalBlock(decoded); err != nil {
						t.Fatalf("epoch %d: %s: %v", e, name, err)
					}
					if got := r.StateRoot(); got != committee.StateRoot() {
						t.Fatalf("epoch %d: %s root %s, committee %s", e, name, got, committee.StateRoot())
					}
				}
				if runs := drainRuns(replica); runs != 0 {
					t.Errorf("epoch %d: replica ran %d transitions applying the block", e, runs)
				}
				if got, want := replica.StateRoot(), replica.RecomputeStateRoot(); got != want {
					t.Errorf("epoch %d: replica incremental root %s, recomputed %s", e, got, want)
				}
			}

			for i, fb := range sealed {
				again, err := wire.EncodeFinalBlock(fb)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, broadcast[i]) {
					t.Errorf("sealed block %d changed after later epochs committed", i)
				}
			}

			recovered := genesis()
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := store.Open(dir, store.WithSnapshotEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if err := reopened.Recover(recovered); err != nil {
				t.Fatal(err)
			}
			if runs := drainRuns(recovered); runs != 0 {
				t.Errorf("recovery ran %d transitions", runs)
			}
			if got := recovered.StateRoot(); got != committee.StateRoot() {
				t.Errorf("recovered root %s, committee %s", got, committee.StateRoot())
			}
			if got, want := recovered.StateRoot(), recovered.RecomputeStateRoot(); got != want {
				t.Errorf("recovered incremental root %s, recomputed %s", got, want)
			}
			if recovered.Checkpoint() != committee.Checkpoint() {
				t.Errorf("recovered checkpoint %+v, committee %+v", recovered.Checkpoint(), committee.Checkpoint())
			}
		})
	}
}
