package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cosplit/internal/dispatch"
	"cosplit/internal/mempool"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
)

// dispatchLog records the exact order the dispatcher commits each
// epoch's batch, keyed back to (sender, nonce) so the sequence is
// comparable across runs that assign different transaction IDs.
type dispatchLog struct {
	obs.Nop
	keys    map[uint64]string
	byEpoch map[uint64][]string
}

func newDispatchLog() *dispatchLog {
	return &dispatchLog{keys: make(map[uint64]string), byEpoch: make(map[uint64][]string)}
}

func (l *dispatchLog) TxDispatched(epoch, tx uint64, shard int, reason string) {
	l.byEpoch[epoch] = append(l.byEpoch[epoch], l.keys[tx])
}

// TestMempoolDuplicateNonceOneEpoch exercises both duplicate-nonce
// outcomes within a single epoch: an equal-priced duplicate is refused
// at admission with typed, errors.Is-able sentinels, and a
// higher-priced duplicate replaces the original so exactly one
// transaction for that nonce commits.
func TestMempoolDuplicateNonceOneEpoch(t *testing.T) {
	net, ft, users := deployFT(t, 2, 3, true,
		shard.WithMempool(mempool.DefaultConfig()),
		shard.WithConsensusModel(false))
	alice, bob, carol := users[0], users[1], users[2]

	if _, err := net.SubmitTx(transferTx(alice, bob, ft, 1, 10)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Same nonce at the same price: rejected, and the error carries
	// both the pricing sentinel and the dispatcher's replay sentinel.
	_, err := net.SubmitTx(transferTx(alice, bob, ft, 1, 99))
	if !errors.Is(err, mempool.ErrUnderpriced) || !errors.Is(err, dispatch.ErrNonceReplay) {
		t.Fatalf("duplicate at equal price: got %v, want ErrUnderpriced wrapping ErrNonceReplay", err)
	}
	// Same nonce at a strictly higher price: replacement-by-fee.
	repl := transferTx(alice, carol, ft, 1, 7)
	repl.GasPrice = 5
	if _, err := net.SubmitTx(repl); err != nil {
		t.Fatalf("replacement: %v", err)
	}

	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 1 || stats.Failed != 0 || stats.Rejected != 0 {
		t.Fatalf("want exactly the replacement committed, got %+v", stats)
	}
	// The replacement (alice→carol, 7) must be the surviving effect.
	if got := balanceOf(t, net, ft, carol); got != 7 {
		t.Fatalf("carol balance = %d, want 7 (replacement effect)", got)
	}
	if got := balanceOf(t, net, ft, bob); got != 0 {
		t.Fatalf("bob balance = %d, want 0 (original transfer replaced)", got)
	}
}

// TestMempoolNonceGapAcrossEpochs parks out-of-order nonces in one
// epoch and releases them in a later epoch once the gap fills, then
// checks the final state is bit-identical to a sequential in-order run
// through the legacy Submit path.
func TestMempoolNonceGapAcrossEpochs(t *testing.T) {
	net, ft, users := deployFT(t, 2, 2, true,
		shard.WithMempool(mempool.DefaultConfig()),
		shard.WithConsensusModel(false))
	alice, bob := users[0], users[1]

	// Nonces 1,2 are ready; 4,5 park behind the missing 3.
	for _, n := range []uint64{1, 2, 4, 5} {
		if _, err := net.SubmitTx(transferTx(alice, bob, ft, n, n)); err != nil {
			t.Fatalf("submit nonce %d: %v", n, err)
		}
	}
	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 2 {
		t.Fatalf("epoch 1: committed %d, want 2 (nonces 1,2; 4,5 parked)", stats.Committed)
	}
	if depth := net.Pool().Len(); depth != 2 {
		t.Fatalf("epoch 1: pool depth %d, want 2 parked", depth)
	}

	// Filling the gap releases the whole chain next epoch.
	if _, err := net.SubmitTx(transferTx(alice, bob, ft, 3, 3)); err != nil {
		t.Fatalf("gap fill: %v", err)
	}
	stats, err = net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 3 {
		t.Fatalf("epoch 2: committed %d, want 3 (nonces 3,4,5)", stats.Committed)
	}
	if depth := net.Pool().Len(); depth != 0 {
		t.Fatalf("epoch 2: pool depth %d, want 0", depth)
	}

	// Sequential control: same five transfers, in order, legacy path.
	ctl, ctlFT, ctlUsers := deployFT(t, 2, 2, true, shard.WithConsensusModel(false))
	for _, n := range []uint64{1, 2, 3, 4, 5} {
		ctl.Submit(transferTx(ctlUsers[0], ctlUsers[1], ctlFT, n, n))
	}
	if _, err := ctl.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	_ = ctlFT
	if got, want := net.StateRoot(), ctl.StateRoot(); got != want {
		t.Fatalf("gap-fill state root %s != sequential control %s", got, want)
	}
}

// TestMempoolInterleavedSendersParallel drains a pool whose twelve
// senders advance their nonce chains in parallel (everyone's nonce n
// before anyone's n+1) over several capped epochs, twice, and requires
// the per-epoch dispatch sequences and the final state root to repeat
// bit for bit.
func TestMempoolInterleavedSendersParallel(t *testing.T) {
	run := func() (*dispatchLog, string) {
		log := newDispatchLog()
		cfg := mempool.DefaultConfig()
		cfg.MaxBatch = 13
		net, ft, users := deployFT(t, 4, 12, true,
			shard.WithMempool(cfg),
			shard.WithConsensusModel(false),
			shard.WithRecorder(log))
		// Interleave: every sender's nonce n before anyone's nonce n+1,
		// with per-tx prices that force cross-sender priority mixing.
		for n := uint64(1); n <= 4; n++ {
			for i, u := range users {
				tx := transferTx(u, users[(i+1)%len(users)], ft, n, 1)
				tx.GasPrice = 1 + (uint64(i)*7+n*3)%5
				id, err := net.SubmitTx(tx)
				if err != nil {
					t.Fatalf("submit user %d nonce %d: %v", i, n, err)
				}
				log.keys[id] = fmt.Sprintf("%s/%d", u, n)
			}
		}
		for net.MempoolSize() > 0 {
			if _, err := net.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return log, net.StateRoot()
	}

	firstLog, firstRoot := run()
	againLog, againRoot := run()
	if firstRoot != againRoot {
		t.Fatalf("second run's state root %s != first run's %s", againRoot, firstRoot)
	}
	if len(firstLog.byEpoch) < 2 {
		t.Fatalf("MaxBatch 13 over 48 txs should span epochs, got %d", len(firstLog.byEpoch))
	}
	for ep, want := range firstLog.byEpoch {
		got := againLog.byEpoch[ep]
		if len(got) != len(want) {
			t.Fatalf("epoch %d: second run's batch %d txs, first run's %d", ep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d pos %d: second run dispatched %s, first run %s", ep, i, got[i], want[i])
			}
		}
	}
}

// TestNetworkDrainDeterminism is the acceptance bar for the mempool:
// the same submitted transaction multiset, in any arrival order, must
// yield the same per-epoch batches (checked via the dispatcher's
// commit order) and the same final state root. Three shuffle seeds,
// compared against the identity order. Also checks the pool's
// admission counters surface in the metrics snapshot.
func TestNetworkDrainDeterminism(t *testing.T) {
	const nUsers, chainLen = 10, 5

	run := func(seed int64) (*dispatchLog, string, obs.Snapshot) {
		log := newDispatchLog()
		reg := obs.NewRegistry()
		cfg := mempool.DefaultConfig()
		cfg.MaxBatch = 17
		net, ft, users := deployFT(t, 4, nUsers, true,
			shard.WithMempool(cfg),
			shard.WithConsensusModel(false),
			shard.WithRecorder(log),
			shard.WithRegistry(reg))
		type spec struct {
			user  int
			nonce uint64
		}
		var specs []spec
		for i := range users {
			for n := uint64(1); n <= chainLen; n++ {
				specs = append(specs, spec{i, n})
			}
		}
		if seed != 0 {
			rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) {
				specs[i], specs[j] = specs[j], specs[i]
			})
		}
		for _, s := range specs {
			u := users[s.user]
			tx := transferTx(u, users[(s.user+1)%nUsers], ft, s.nonce, 1)
			tx.GasPrice = 1 + (uint64(s.user)*11+s.nonce*5)%7
			id, err := net.SubmitTx(tx)
			if err != nil {
				t.Fatalf("seed %d: submit user %d nonce %d: %v", seed, s.user, s.nonce, err)
			}
			log.keys[id] = fmt.Sprintf("%s/%d", u, s.nonce)
		}
		for net.MempoolSize() > 0 {
			if _, err := net.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return log, net.StateRoot(), reg.Snapshot()
	}

	refLog, refRoot, snap := run(0)
	if got := snap.Counters["mempool.admitted"]; got != nUsers*chainLen {
		t.Fatalf("mempool.admitted = %d, want %d", got, nUsers*chainLen)
	}
	if _, ok := snap.Histograms["mempool.batch_size"]; !ok {
		t.Fatal("mempool.batch_size histogram missing from snapshot")
	}
	for _, seed := range []int64{1, 2, 3} {
		log, root, _ := run(seed)
		if root != refRoot {
			t.Fatalf("seed %d: state root %s != reference %s", seed, root, refRoot)
		}
		if len(log.byEpoch) != len(refLog.byEpoch) {
			t.Fatalf("seed %d: %d epochs, reference %d", seed, len(log.byEpoch), len(refLog.byEpoch))
		}
		for ep, want := range refLog.byEpoch {
			got := log.byEpoch[ep]
			if len(got) != len(want) {
				t.Fatalf("seed %d epoch %d: batch %d txs, reference %d", seed, ep, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d epoch %d pos %d: dispatched %s, reference %s",
						seed, ep, i, got[i], want[i])
				}
			}
		}
	}
}
