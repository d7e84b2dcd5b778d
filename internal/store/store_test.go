package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
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
		shard.WithShards(4))
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	return env
}

// batchSenders is how many users send in each of epochBatch's
// batches unless a test asks for another count.
const batchSenders = 40

// epochBatch builds epoch k's deterministic transaction mix among the
// first senders users: half of them move FT balances (contract state),
// half move native funds (account state). Fresh Tx values every call,
// so the same logical batch can be submitted to two networks.
func epochBatch(contract chain.Address, users []chain.Address, k uint64, senders int) []*chain.Tx {
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
	return runBatches(t, env, batchSenders, first, nepochs)
}

// runBatches is runEpochs with batches of the given number of senders.
func runBatches(t *testing.T, env *workload.Env, senders, first, nepochs int) (roots []string, cps []shard.Checkpoint) {
	t.Helper()
	for k := first; k < first+nepochs; k++ {
		for _, tx := range epochBatch(env.Contract, env.Users, uint64(k), senders) {
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

// snapshotChainOf parses every snapshot file of dir and checks that
// they form one chain: at most one full file, the oldest, then
// incremental files each extending the one before it (the first one
// genesisEpoch when there is no full file). It returns the files and
// the cost of the incremental ones.
func snapshotChainOf(t *testing.T, dir string, genesisEpoch uint64) ([]*snapFile, int) {
	t.Helper()
	var files []*snapFile
	cost := 0
	at := genesisEpoch
	for i, ref := range snapshotsIn(dir) {
		sf, err := readSnapshotFile(dir, ref)
		if err != nil {
			t.Fatalf("%s: %v", ref.name, err)
		}
		switch {
		case !sf.incremental && i > 0:
			t.Fatalf("%s is a full file behind %s: everything older should be gone", ref.name, files[i-1].name)
		case sf.incremental && sf.since != at:
			t.Fatalf("%s extends epoch %d, the chain before it is at epoch %d", ref.name, sf.since, at)
		case sf.incremental:
			cost += sf.cost()
		}
		at = ref.epoch
		files = append(files, sf)
	}
	return files, cost
}

// TestSnapshotRotation: snapshot boundaries leave a chain the fold
// rule bounds — a full file at most, then incremental files that
// together stay smaller than the state — the journal holds only the
// epochs since the newest file, and the chain plus the journal recover
// the head. The run's 11 boundaries fold the chain at every fifth and end
// one past a fold, on a chain with an incremental file.
func TestSnapshotRotation(t *testing.T) {
	const epochs = 23
	dir := t.TempDir()
	a := provisionFT(t)
	genesis := a.Net.Checkpoint().Epoch
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	var roots []string
	var cps []shard.Checkpoint
	folded := false
	for k := 1; k <= epochs; k++ {
		r, c := runEpochs(t, a, k, 1)
		roots, cps = append(roots, r...), append(cps, c...)
		if c[0].Epoch%2 != 0 {
			continue
		}
		// After every boundary: one chain ending at this epoch, smaller
		// than the state, and what the store reports is what is on disk.
		files, cost := snapshotChainOf(t, dir, genesis)
		if len(files) == 0 || files[len(files)-1].hdr.Checkpoint != c[0] {
			t.Fatalf("boundary %d: newest snapshot is not of checkpoint %+v", c[0].Epoch, c[0])
		}
		if leaves := a.Net.StateLeaves(); cost >= leaves {
			t.Fatalf("boundary %d: incremental files cost %d, the state has %d leaves", c[0].Epoch, cost, leaves)
		}
		if got := stA.chainRecords.Value(); got != int64(cost) {
			t.Fatalf("boundary %d: store.chain_records %d, files cost %d", c[0].Epoch, got, cost)
		}
		full, inc := stA.Chain()
		if full+inc != len(files) || (full == 1) == files[0].incremental {
			t.Fatalf("boundary %d: Chain() = %d full + %d incremental, directory holds %d files", c[0].Epoch, full, inc, len(files))
		}
		folded = folded || (!files[0].incremental && len(files) == 1 && stA.snapshots.Value() > 1)
	}
	if !folded {
		t.Fatalf("%d boundaries never folded the chain into a full file (%d full of %d)", stA.snapshots.Value(),
			stA.snapshotsFull.Value(), stA.snapshots.Value())
	}
	if stA.snapshotsFull.Value() == stA.snapshots.Value() {
		t.Fatal("every boundary wrote a full file")
	}

	head := cps[epochs-1]
	last := head.Epoch - head.Epoch%2
	snaps := snapshotsIn(dir)
	if snaps[len(snaps)-1].epoch != last {
		t.Fatalf("latest snapshot at epoch %d, want %d", snaps[len(snaps)-1].epoch, last)
	}
	// The journal holds only the epochs since that snapshot.
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if wantEmpty := head.Epoch == last; wantEmpty != (info.Size() == 0) {
		t.Fatalf("journal size %d after snapshot at %d (checkpoint %d)", info.Size(), last, head.Epoch)
	}

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(2))
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != head {
		t.Fatalf("recovered checkpoint %+v, want %+v", got, head)
	}
	if got := b.Net.StateRoot(); got != roots[epochs-1] {
		t.Fatalf("recovered root %s, want %s", got, roots[epochs-1])
	}
	if inc, full := b.Net.StateRoot(), b.Net.RecomputeStateRoot(); inc != full {
		t.Fatalf("incremental root %s != recomputed %s", inc, full)
	}

	// A block that does not follow the store's epoch (the network moved
	// under it) forces a full file whatever the chain has room for, and
	// leaves nothing older behind.
	if full, inc := stB.Chain(); inc == 0 {
		t.Fatalf("recovered a chain of %d full + %d incremental files: nothing for the forced snapshot to fold", full, inc)
	}
	b.Net.AttachStateStore(nil)
	runEpochs(t, b, epochs+1, 1)
	b.Net.AttachStateStore(stB)
	roots, cps = runEpochs(t, b, epochs+2, 1)
	if files, _ := snapshotChainOf(t, dir, genesis); len(files) != 1 || files[0].incremental || files[0].hdr.Checkpoint != cps[0] {
		t.Fatalf("after a forced snapshot the directory holds %d files, want one full file of %+v", len(files), cps[0])
	}
	c, stC := recoverFresh(t, dir, WithSnapshotEvery(2))
	defer stC.Close()
	if got := c.Net.StateRoot(); got != roots[0] || c.Net.Checkpoint() != cps[0] {
		t.Fatalf("recovered %+v root %s from the forced snapshot, want %+v root %s", c.Net.Checkpoint(), got, cps[0], roots[0])
	}
}

// TestAppendOnlyStaysIncremental: on an append-only state — every
// ProofIPFS registration adds map entries and none is ever rewritten —
// an entry costs the fold rule the leaf it is, in an incremental file
// as in a full one, so the chain grows no faster than the state: every
// boundary after the first full file writes an incremental file,
// recovery reads fewer leaves than two states' worth and lands on the
// committee's root.
func TestAppendOnlyStaysIncremental(t *testing.T) {
	const epochs, txs = 16, 600
	provision := func() *workload.Env {
		env, err := workload.Provision(workload.ProofIPFSRegister(), true, shard.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	a := provision()
	w := workload.ProofIPFSRegister()
	dir := t.TempDir()
	st := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(st)
	fullLeaves := 0 // the leaves of the full file, once there is one
	for k := 1; k <= epochs; k++ {
		for i := 0; i < txs; i++ {
			a.Net.Submit(w.Next(a))
		}
		fulls, cost0 := st.snapshotsFull.Value(), st.chainRecords.Value()
		stats, err := a.Net.RunEpoch()
		if err != nil || stats.Failed > 0 || stats.Committed != txs {
			t.Fatalf("epoch %d: committed %d, failed %d: %v", k, stats.Committed, stats.Failed, err)
		}
		if st.snapshotsFull.Value() == fulls {
			continue
		}
		if fullLeaves > 0 {
			t.Fatalf("epoch %d: a second full file; the chain had cost %d, the state has %d leaves", a.Net.Epoch-1, cost0, a.Net.StateLeaves())
		}
		fullLeaves = a.Net.StateLeaves()
	}
	full, inc := st.Chain()
	if full != 1 || inc < epochs/2-2 {
		t.Fatalf("the chain is %d full + %d incremental files after %d boundaries", full, inc, st.snapshots.Value())
	}
	_, cost := snapshotChainOf(t, dir, 0)
	if leaves := a.Net.StateLeaves(); fullLeaves+cost >= 2*leaves {
		t.Fatalf("recovery reads %d leaves of full file and %d of incremental ones, the state has %d", fullLeaves, cost, leaves)
	}
	root := a.Net.StateRoot()
	st.Close()
	b := provision()
	stB := openStore(t, dir)
	defer stB.Close()
	if err := stB.Recover(b.Net); err != nil {
		t.Fatal(err)
	}
	if got := b.Net.StateRoot(); got != root || b.Net.RecomputeStateRoot() != root {
		t.Fatalf("recovered root %s (recomputed %s), the committee's %s", got, b.Net.RecomputeStateRoot(), root)
	}
}

// TestKeepTracking is the fold rule's forecast, case by case: the
// interval's keys are kept while their projected cost, with the
// chain's, stays below the state's projected leaves, and the state is
// projected from its growth since tracking began.
func TestKeepTracking(t *testing.T) {
	for _, c := range []struct {
		name                       string
		chain, dirty, base, leaves int
		elapsed, left              uint64
		keep                       bool
	}{
		{"a still state, a small interval", 0, 100, 10_000, 10_000, 1, 7, true},
		{"a still state, keys at its size by the boundary", 0, 1250, 10_000, 10_000, 1, 7, false},
		{"the chain's cost counts", 2_000, 1_000, 10_000, 10_000, 1, 7, false},
		{"the boundary block itself", 0, 9_999, 10_000, 10_000, 8, 0, true},
		// Append-only: each epoch adds the leaves it dirties. Counted
		// against today's leaves the keys would be given up; the state
		// grows as fast as they do, so they are kept.
		{"append-only, first epoch of eight", 0, 4_200, 28_207, 32_407, 1, 7, true},
		{"append-only, half way", 0, 16_800, 28_207, 45_007, 4, 4, true},
		{"append-only with a long chain", 30_000, 4_200, 28_207, 32_407, 1, 7, false},
		{"a shrinking state", 0, 1_000, 10_000, 9_000, 1, 7, false},
		{"the last epoch before the boundary", 0, 7_000, 9_000, 9_500, 7, 1, true},
	} {
		if got := keepTracking(c.chain, c.dirty, c.base, c.leaves, c.elapsed, c.left); got != c.keep {
			t.Errorf("%s: keepTracking = %v, want %v", c.name, got, c.keep)
		}
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

// TestCorruptSnapshotFallsBackOrFailsLoudly flips a byte in the first,
// a middle and the last file of a snapshot chain. With the journal
// compacted the frame CRC rejects the file and recovery must refuse —
// never return the older state the files before it describe, never
// restart from genesis with history compacted away. Only while the
// journal still holds the blocks the bad file covered (a crash between
// its rename and the truncation) does recovery fall back to them.
func TestCorruptSnapshotFallsBackOrFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	genesis := a.Net.Checkpoint().Epoch
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	// Run until a boundary leaves a chain of three files. A second run
	// of the same epochs never snapshots: its journal holds every block,
	// the boundary's own included, as the first run's did until the
	// boundary truncated it.
	ref := provisionFT(t)
	refDir := t.TempDir()
	ref.Net.AttachStateStore(openStore(t, refDir, WithSnapshotEvery(0)))
	var roots []string
	var cps []shard.Checkpoint
	var files []*snapFile
	for k := 1; len(files) < 3; k++ {
		if k > 12 {
			t.Fatalf("no chain of three files in %d epochs", k)
		}
		runEpochs(t, ref, k, 1)
		r, c := runEpochs(t, a, k, 1)
		roots, cps = append(roots, r...), append(cps, c...)
		if c[0].Epoch%2 == 0 {
			files, _ = snapshotChainOf(t, dir, genesis)
		}
	}
	journal, err := os.ReadFile(filepath.Join(refDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	pre := len(roots) - 1 // index of the boundary epoch
	if info, err := os.Stat(filepath.Join(dir, journalName)); err != nil || info.Size() != 0 {
		t.Fatalf("journal not compacted by the last boundary: %v", err)
	}
	flip := func(t *testing.T, dir, name string) {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	for pos, sf := range map[string]*snapFile{"first": files[0], "middle": files[1], "last": files[len(files)-1]} {
		t.Run(pos, func(t *testing.T) {
			work := copyDir(t, dir)
			flip(t, work, sf.name)
			// A refused recovery leaves the directory to be refused again.
			for try := 0; try < 2; try++ {
				st := openStore(t, work, WithSnapshotEvery(2))
				err := st.Recover(provisionFT(t).Net)
				st.Close()
				if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrJournalGap) {
					t.Fatalf("recovery %d over a corrupt %s with a compacted journal: %v, want ErrCorruptSnapshot or ErrJournalGap", try, sf.name, err)
				}
			}
		})
	}
	t.Run("journal not truncated", func(t *testing.T) {
		work := copyDir(t, dir)
		flip(t, work, files[len(files)-1].name)
		if err := os.WriteFile(filepath.Join(work, journalName), journal, 0o666); err != nil {
			t.Fatal(err)
		}
		b, st := recoverFresh(t, work, WithSnapshotEvery(2))
		defer st.Close()
		if got := b.Net.Checkpoint(); got != cps[pre] {
			t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[pre])
		}
		if got := b.Net.StateRoot(); got != roots[pre] {
			t.Fatalf("recovered root %s, want %s", got, roots[pre])
		}
		// The file recovery could not use is gone: the chain the next
		// boundary extends is the one that was applied.
		if _, err := os.Stat(filepath.Join(work, files[len(files)-1].name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("unusable %s survived recovery: %v", files[len(files)-1].name, err)
		}
		runEpochs(t, b, pre+2, 2)
		snapshotChainOf(t, work, genesis)
	})
}

// copyDir copies a state directory's files into a fresh one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRestoreReadOnly: serving catch-up from a committee's directory —
// its journaled blocks (Store.Blocks) and a state image of its live
// state — leaves the directory byte-identical, and what it serves
// brings a fresh genesis to the committee's state: the image applied
// directly, as a recovery of a copy of the directory does.
func TestRestoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(0))
	defer stA.Close()
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 4)

	blocks, image := serveCatchUp(t, stA, a.Net, dir)
	if len(blocks) != 4 {
		t.Fatalf("served %d journaled blocks, want 4", len(blocks))
	}
	b := provisionFT(t)
	if applied, err := ApplyImage(b.Net, image); !applied || err != nil {
		t.Fatalf("image over genesis: applied %v, %v", applied, err)
	}
	c, stC := recoverFresh(t, copyDir(t, dir), WithSnapshotEvery(0))
	defer stC.Close()
	for name, n := range map[string]*shard.Network{"image": b.Net, "recovery": c.Net} {
		if got := n.Checkpoint(); got != cps[3] {
			t.Fatalf("%s: checkpoint %+v, want %+v", name, got, cps[3])
		}
		if got := n.StateRoot(); got != roots[3] {
			t.Fatalf("%s: root %s, want %s", name, got, roots[3])
		}
	}
	if applied, err := ApplyImage(b.Net, image); applied || err != nil {
		t.Fatalf("image at the replica's own epoch: applied %v, %v; want it ignored", applied, err)
	}
}

// serveCatchUp serves from st and n what a committee serves a replica
// — every journaled block and a state image — and fails the test
// unless st's directory dir is byte-identical afterwards.
func serveCatchUp(t *testing.T, st *Store, n *shard.Network, dir string) ([]*shard.FinalBlock, []byte) {
	t.Helper()
	before := dirBytes(t, dir)
	blocks, err := st.Blocks(0, n.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	image := imageOf(t, n)
	if after := dirBytes(t, dir); !maps.Equal(after, before) {
		t.Fatalf("serving catch-up changed the directory: %d files, was %d", len(after), len(before))
	}
	return blocks, image
}

// imageOf is n's state image as a replica gathers it: Image's records,
// concatenated.
func imageOf(t *testing.T, n *shard.Network) []byte {
	t.Helper()
	var image []byte
	if err := Image(n, func(record []byte) error {
		image = append(image, record...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return image
}

// dirBytes maps each file of dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		out[e.Name()] = string(readFile(t, filepath.Join(dir, e.Name())))
	}
	return out
}

// TestStoreGapWritesFullSnapshot: a store recovered on an empty
// directory is attached only after five epochs ran without it, as a
// replica's store is when a state image moves its network. The next
// block does not follow the epoch the store recovered, so the store
// must write a full file of that block's checkpoint: recovery from the
// directory lands on it, with snapshots or without.
func TestStoreGapWritesFullSnapshot(t *testing.T) {
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprint("every ", every), func(t *testing.T) {
			dir := t.TempDir()
			a := provisionFT(t)
			st := openStore(t, dir, WithSnapshotEvery(every))
			if err := st.Recover(a.Net); err != nil {
				t.Fatal(err)
			}
			runEpochs(t, a, 1, 5)
			a.Net.AttachStateStore(st)
			roots, cps := runEpochs(t, a, 6, 1)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			b, stB := recoverFresh(t, dir, WithSnapshotEvery(every))
			defer stB.Close()
			if got := b.Net.Checkpoint(); got != cps[0] {
				t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[0])
			}
			if got := b.Net.StateRoot(); got != roots[0] {
				t.Fatalf("recovered root %s, want %s", got, roots[0])
			}
			if full, inc := stB.Chain(); full != 1 || inc != 0 {
				t.Fatalf("chain of %d full + %d incremental files, want the one full file", full, inc)
			}
		})
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
	again := openStore(t, dir, WithSnapshotEvery(0))
	defer again.Close()
	if err := again.Recover(provisionFT(t).Net); !errors.Is(err, wire.ErrVersionSkew) {
		t.Errorf("second Recover over a version-%d journal: %v, want ErrVersionSkew", wire.Version-1, err)
	}
}

// TestOpenRefusesPagedStateDir: a directory the retired paged store
// wrote holds its state under pages/ and a journal its flushes
// truncated. Opened as a resident store it would recover to genesis
// (empty journal) or fail with ErrJournalGap (one that starts past
// genesis); Open must instead refuse it with ErrPagedState and leave
// every file as it was.
func TestOpenRefusesPagedStateDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "pages"), 0o777); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{filepath.Join("pages", "pages.idx"), journalName} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	before := dirListing(t, dir)
	st, err := Open(dir)
	if err == nil {
		st.Close()
	}
	if !errors.Is(err, ErrPagedState) {
		t.Errorf("Open over a paged directory: %v, want ErrPagedState", err)
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("refused open changed the directory:\nbefore %s\nafter  %s", before, after)
	}
}

// dirListing renders dir (recursively) as name:modtime lines, for
// asserting read-only behaviour.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	out := ""
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out += path + ":" + info.ModTime().String() + "\n"
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
