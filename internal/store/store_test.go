package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// provisionFT stands up the FT transfer environment — a deployed
// FungibleToken with every user funded — through the same
// deterministic genesis every time, which is the recovery contract:
// a restarted process re-provisions genesis, then the store replays
// the committed history on top.
func provisionFT(t *testing.T) *workload.Env {
	t.Helper()
	env, err := workload.Provision(workload.FTTransfer(), true,
		shard.WithShards(4), shard.WithConsensusModel(false))
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	return env
}

// epochBatch builds epoch k's deterministic transaction mix: half the
// senders move FT balances (contract state), half move native funds
// (account state). Fresh Tx values every call, so the same logical
// batch can be submitted to two networks.
func epochBatch(contract chain.Address, users []chain.Address, k uint64) []*chain.Tx {
	const senders = 40
	txs := make([]*chain.Tx, 0, senders)
	for i := 0; i < senders; i++ {
		from := users[i]
		to := users[(i+int(k))%senders]
		if to == from {
			to = users[(i+int(k)+1)%senders]
		}
		if i%2 == 0 {
			txs = append(txs, &chain.Tx{
				Kind: chain.TxCall, From: from, To: contract, Nonce: k,
				Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
				Transition: "Transfer",
				Args: map[string]value.Value{
					"to": to.Value(), "amount": value.Uint128(1),
				},
			})
		} else {
			txs = append(txs, &chain.Tx{
				Kind: chain.TxTransfer, From: from, To: to, Nonce: k,
				Amount: big.NewInt(5), GasLimit: 1, GasPrice: 1,
			})
		}
	}
	return txs
}

// runEpochs drives nepochs deterministic batches, returning the state
// root and checkpoint after each one. first is the batch ordinal to
// start from (batches are numbered 1.. so nonces line up across
// resumed runs).
func runEpochs(t *testing.T, env *workload.Env, first, nepochs int) (roots []string, cps []shard.Checkpoint) {
	t.Helper()
	for k := first; k < first+nepochs; k++ {
		for _, tx := range epochBatch(env.Contract, env.Users, uint64(k)) {
			env.Net.Submit(tx)
		}
		stats, err := env.Net.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		if stats.Failed > 0 || stats.Committed == 0 {
			t.Fatalf("epoch %d: committed %d, failed %d", k, stats.Committed, stats.Failed)
		}
		roots = append(roots, env.Net.StateRoot())
		cps = append(cps, env.Net.Checkpoint())
	}
	return roots, cps
}

func openStore(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	st, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// recoverFresh provisions the deterministic genesis again and recovers
// it from dir, returning the recovered environment with the store
// attached.
func recoverFresh(t *testing.T, dir string, opts ...Option) (*workload.Env, *Store) {
	t.Helper()
	env := provisionFT(t)
	st := openStore(t, dir, opts...)
	if err := st.Recover(env.Net); err != nil {
		t.Fatalf("recover: %v", err)
	}
	env.Net.AttachStateStore(st)
	return env, st
}

func TestRecoverFromJournal(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(0))
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)
	// No Close: every committed epoch is already fsynced, exactly the
	// on-disk state a kill -9 leaves behind.

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(0))
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != cps[4] {
		t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[4])
	}
	if got := b.Net.StateRoot(); got != roots[4] {
		t.Fatalf("recovered root %s, want %s", got, roots[4])
	}
	// The incremental trie rebuilt by recovery must agree with a full
	// recompute of the restored state.
	if inc, full := b.Net.StateRoot(), b.Net.RecomputeStateRoot(); inc != full {
		t.Fatalf("incremental root %s != recomputed %s", inc, full)
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 7)

	snaps := snapshotsIn(dir)
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot after rotation, got %v", snaps)
	}
	last := cps[6].Epoch - cps[6].Epoch%2
	if snaps[0].epoch != last {
		t.Fatalf("latest snapshot at epoch %d, want %d", snaps[0].epoch, last)
	}
	// The journal holds only the epochs since that snapshot.
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if wantEmpty := cps[6].Epoch == last; wantEmpty != (info.Size() == 0) {
		t.Fatalf("journal size %d after snapshot at %d (checkpoint %d)", info.Size(), last, cps[6].Epoch)
	}

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(2))
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != cps[6] {
		t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[6])
	}
	if got := b.Net.StateRoot(); got != roots[6] {
		t.Fatalf("recovered root %s, want %s", got, roots[6])
	}
}

func TestTornJournalTailTruncated(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(0))
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)

	// Tear the last record mid-frame: the crash happened while epoch 5's
	// append was in flight.
	path := filepath.Join(dir, journalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(0))
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != cps[3] {
		t.Fatalf("recovered checkpoint %+v, want pre-tear %+v", got, cps[3])
	}
	if got := b.Net.StateRoot(); got != roots[3] {
		t.Fatalf("recovered root %s, want %s", got, roots[3])
	}
	// Re-running the lost epoch's exact batch must land on the original
	// chain bit-for-bit: the restored NextTxID hands out the same ids.
	rr, rcps := runEpochs(t, b, 5, 1)
	if rr[0] != roots[4] || rcps[0] != cps[4] {
		t.Fatalf("re-run epoch: root %s cp %+v, want %s %+v", rr[0], rcps[0], roots[4], cps[4])
	}
}

func TestKillRestartResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(4))
	a.Net.AttachStateStore(stA)
	rootsA, cpsA := runEpochs(t, a, 1, 4)
	// Kill: abandon the store (no Close) and tear the in-flight frame so
	// recovery really exercises the mid-epoch crash path.
	path := filepath.Join(dir, journalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatalf("test expects a non-empty journal tail after the last snapshot")
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	// The survivor continues without the directory (its store handle
	// died with the process being modelled).
	a.Net.AttachStateStore(nil)
	moreA, moreCpsA := runEpochs(t, a, 5, 3)

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(4))
	defer stB.Close()
	// Recovery lands wherever the torn journal ends; resubmitting the
	// deterministic stream from there must replay onto the identical
	// chain. Checkpoint epoch cp means batches 1..cp-cpsA[0].Epoch+1
	// committed, so the next batch ordinal is cp-cpsA[0].Epoch+2.
	next := int(b.Net.Checkpoint().Epoch - cpsA[0].Epoch + 2)
	if next < 2 || next > 4 {
		t.Fatalf("recovered to unexpected epoch: %+v (first run started at %+v)", b.Net.Checkpoint(), cpsA[0])
	}
	rootsB, cpsB := runEpochs(t, b, next, 7-next+1)
	all := append(append([]string{}, rootsA...), moreA...)
	allCps := append(append([]shard.Checkpoint{}, cpsA...), moreCpsA...)
	tail := all[next-1:]
	tailCps := allCps[next-1:]
	for i := range rootsB {
		if rootsB[i] != tail[i] || cpsB[i] != tailCps[i] {
			t.Fatalf("resumed epoch %d diverged: root %s cp %+v, want %s %+v",
				next+i, rootsB[i], cpsB[i], tail[i], tailCps[i])
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	env, st := recoverFresh(t, dir)
	defer st.Close()
	if ep := env.Net.Checkpoint().Epoch; ep > 2 {
		t.Fatalf("fresh recovery should stay at genesis provisioning epoch, got %d", ep)
	}
	// And the store must be usable from there.
	runEpochs(t, env, 1, 1)
}

func TestCorruptSnapshotFallsBackOrFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	runEpochs(t, a, 1, 6)

	snaps := snapshotsIn(dir)
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	// Flip a byte mid-file: the frame CRC rejects the snapshot, and with
	// no older snapshot to fall back to recovery must refuse — never
	// silently restart from genesis with history compacted away.
	path := filepath.Join(dir, snaps[0].name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}

	env := provisionFT(t)
	st := openStore(t, dir, WithSnapshotEvery(2))
	defer st.Close()
	err = st.Recover(env.Net)
	if err == nil {
		t.Fatal("recovery from corrupt snapshot with compacted journal must fail")
	}
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot, got %v", err)
	}
}

// TestRestoreReadOnly recovers through the side-effect-free path and
// verifies the directory is untouched (replicas restoring from another
// role's directory must not truncate its journal).
func TestRestoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(0))
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 4)
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	b := provisionFT(t)
	if err := Restore(dir, b.Net); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := b.Net.Checkpoint(); got != cps[3] {
		t.Fatalf("restored checkpoint %+v, want %+v", got, cps[3])
	}
	if got := b.Net.StateRoot(); got != roots[3] {
		t.Fatalf("restored root %s, want %s", got, roots[3])
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("read-only restore changed the journal: %d -> %d bytes", len(before), len(after))
	}
}

// TestRecoverRefusesPreviousVersionJournal: a journal written by the
// previous wire format (its FinalBlocks carry a DS batch to re-execute
// where this version expects the DS phase's deltas) must stop recovery
// with ErrVersionSkew — not read as a torn tail, truncated, and
// restarted from genesis as if no epoch had ever committed.
func TestRecoverRefusesPreviousVersionJournal(t *testing.T) {
	dir := t.TempDir()
	env := provisionFT(t)
	st := openStore(t, dir, WithSnapshotEvery(0))
	env.Net.AttachStateStore(st)
	runEpochs(t, env, 1, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp every frame with the previous version; the checksum covers
	// the payload only, so the frames stay otherwise intact.
	for off := 0; off < len(journal); {
		journal[off+2] = wire.Version - 1
		off += wire.HeaderLen + int(binary.BigEndian.Uint32(journal[off+4:off+8]))
	}
	if err := os.WriteFile(path, journal, 0o666); err != nil {
		t.Fatal(err)
	}

	fresh := provisionFT(t)
	genesis := fresh.Net.Checkpoint()
	st = openStore(t, dir, WithSnapshotEvery(0))
	defer st.Close()
	err = st.Recover(fresh.Net)
	if !errors.Is(err, wire.ErrVersionSkew) {
		t.Fatalf("Recover over a version-%d journal: %v, want ErrVersionSkew", wire.Version-1, err)
	}
	if fresh.Net.Checkpoint() != genesis {
		t.Errorf("refused recovery moved the network to %+v", fresh.Net.Checkpoint())
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, journal) {
		t.Errorf("refused recovery rewrote the journal (%d bytes, was %d): %v", len(after), len(journal), err)
	}
	if err := Restore(dir, provisionFT(t).Net); !errors.Is(err, wire.ErrVersionSkew) {
		t.Errorf("Restore over a version-%d journal: %v, want ErrVersionSkew", wire.Version-1, err)
	}
}
