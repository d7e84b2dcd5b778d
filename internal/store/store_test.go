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
	"slices"
	"strings"
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

// onlySnapshot parses the snapshot files of dir and checks that there
// is at most one. It returns that file, or nil.
func onlySnapshot(t *testing.T, dir string) *snapFile {
	t.Helper()
	snaps := snapshotsIn(dir)
	switch len(snaps) {
	case 0:
		return nil
	case 1:
		sf, err := readSnapshotFile(dir, snaps[0])
		if err != nil {
			t.Fatalf("%s: %v", snaps[0].name, err)
		}
		return sf
	}
	t.Fatalf("the directory holds %d snapshot files, want one at most: %v", len(snaps), snaps)
	return nil
}

// journalCostOf is the replay cost of the blocks in dir's journal, read
// back from the file.
func journalCostOf(t *testing.T, dir string) int {
	t.Helper()
	cost := 0
	for _, fr := range frames(t, readFile(t, filepath.Join(dir, journalName))) {
		_, payload, _, err := wire.DecodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := wire.DecodeCheckpointBlock(payload)
		if err != nil {
			t.Fatal(err)
		}
		cost += replayCost(cb.Block)
	}
	return cost
}

// TestSnapshotRotation: snapshot boundaries leave a directory the fold
// rule bounds — one full file at most, and a journal of the epochs
// since it whose replay cost, as the store counts it and as the
// journal's blocks add up, stays below the state's leaves after every
// boundary — and the file plus the journal recover the head. The run's
// 11 boundaries fold the journal at some and not at others, and it
// ends one past a boundary, with a journal tail.
func TestSnapshotRotation(t *testing.T) {
	const epochs = 23
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	var roots []string
	var cps []shard.Checkpoint
	folds, below := 0, 0
	for k := 1; k <= epochs; k++ {
		files := stA.snapshots.Value()
		r, c := runEpochs(t, a, k, 1)
		roots, cps = append(roots, r...), append(cps, c...)
		if got := journalCostOf(t, dir); stA.journalCost != got || stA.costGauge.Value() != int64(got) {
			t.Fatalf("epoch %d: journal cost %d (store.journal_cost %d), the journal's blocks cost %d", c[0].Epoch, stA.journalCost, stA.costGauge.Value(), got)
		}
		sf := onlySnapshot(t, dir)
		if (sf != nil) != (stA.Chain() == 1) {
			t.Fatalf("epoch %d: Chain() = %d, the directory holds a file: %v", c[0].Epoch, stA.Chain(), sf != nil)
		}
		if c[0].Epoch%2 != 0 {
			continue
		}
		switch leaves := a.Net.StateLeaves(); {
		case stA.snapshots.Value() == files:
			below++
			if stA.journalCost >= leaves {
				t.Fatalf("boundary %d wrote no file at journal cost %d, %d leaves", c[0].Epoch, stA.journalCost, leaves)
			}
		case sf == nil || sf.hdr.Checkpoint != c[0] || stA.journalCost != 0:
			t.Fatalf("boundary %d folded the journal, but the directory holds %v at journal cost %d", c[0].Epoch, sf, stA.journalCost)
		default:
			folds++
		}
	}
	if folds == 0 || below == 0 {
		t.Fatalf("%d boundaries folded the journal and %d did not: want both", folds, below)
	}

	head := cps[epochs-1]
	sf := onlySnapshot(t, dir)
	if info, err := os.Stat(filepath.Join(dir, journalName)); err != nil || info.Size() == 0 {
		t.Fatalf("no journal tail after the last boundary: %v", err)
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
	if got := journalCostOf(t, dir); stB.journalCost != got || stB.Chain() != 1 || sf == nil {
		t.Fatalf("recovered journal cost %d on %d full files, the journal's blocks cost %d", stB.journalCost, stB.Chain(), got)
	}

	// A block that does not follow the store's epoch (the network moved
	// under it) forces a full file whatever the journal's cost, and
	// leaves nothing older behind.
	b.Net.AttachStateStore(nil)
	runEpochs(t, b, epochs+1, 1)
	b.Net.AttachStateStore(stB)
	roots, cps = runEpochs(t, b, epochs+2, 1)
	if sf := onlySnapshot(t, dir); sf == nil || sf.hdr.Checkpoint != cps[0] || stB.journalCost != 0 {
		t.Fatalf("after a forced snapshot the directory holds %v at journal cost %d, want one full file of %+v", sf, stB.journalCost, cps[0])
	}
	c, stC := recoverFresh(t, dir, WithSnapshotEvery(2))
	defer stC.Close()
	if got := c.Net.StateRoot(); got != roots[0] || c.Net.Checkpoint() != cps[0] {
		t.Fatalf("recovered %+v root %s from the forced snapshot, want %+v root %s", c.Net.Checkpoint(), got, cps[0], roots[0])
	}
}

// TestAppendOnlyStaysIncremental: on an append-only state — every
// ProofIPFS registration adds map entries and none is ever rewritten —
// the state grows with the journal, and a boundary below the fold
// writes no file: the directory keeps the file it had, byte for byte,
// and the journal goes on. Recovery reads fewer leaves than two
// states' worth, file and journal together, and lands on the
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
	below, fileLeaves := 0, 0 // fileLeaves: the leaves of the file, once there is one
	for k := 1; k <= epochs; k++ {
		for i := 0; i < txs; i++ {
			a.Net.Submit(w.Next(a))
		}
		files := dirBytes(t, dir)
		delete(files, journalName)
		fileCount := st.snapshots.Value()
		stats, err := a.Net.RunEpoch()
		if err != nil || stats.Failed > 0 || stats.Committed != txs {
			t.Fatalf("epoch %d: committed %d, failed %d: %v", k, stats.Committed, stats.Failed, err)
		}
		if st.snapshots.Value() != fileCount {
			fileLeaves = a.Net.StateLeaves()
			continue
		}
		if a.Net.Epoch%2 != 0 {
			continue
		}
		below++
		after := dirBytes(t, dir)
		delete(after, journalName)
		if !maps.Equal(after, files) {
			t.Fatalf("epoch %d: a boundary below the fold (journal cost %d, %d leaves) changed the snapshot files", a.Net.Epoch, st.journalCost, a.Net.StateLeaves())
		}
	}
	if below == 0 {
		t.Fatalf("none of %d boundaries stayed below the fold", epochs/2)
	}
	onlySnapshot(t, dir)
	if leaves := a.Net.StateLeaves(); fileLeaves+st.journalCost >= 2*leaves {
		t.Fatalf("recovery reads %d leaves of file and a journal of cost %d, the state has %d leaves", fileLeaves, st.journalCost, leaves)
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
// a middle and the last frame of a directory's snapshot file. With the
// journal compacted the frame CRC rejects the file and recovery must
// refuse and restore nothing — never return an older state, never
// restart from genesis with history compacted away. Only while the
// journal still holds the blocks the bad file covered (a crash between
// its rename and the truncation) does recovery fall back to them.
func TestCorruptSnapshotFallsBackOrFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	// Run until a boundary folds the journal. A second run of the same
	// epochs never snapshots: its journal holds every block, the
	// boundary's own included, as the first run's did until the
	// boundary truncated it.
	ref := provisionFT(t)
	refDir := t.TempDir()
	ref.Net.AttachStateStore(openStore(t, refDir, WithSnapshotEvery(0)))
	var roots []string
	var cps []shard.Checkpoint
	for k := 1; stA.snapshots.Value() == 0; k++ {
		if k > 12 {
			t.Fatalf("no fold in %d epochs", k)
		}
		runEpochs(t, ref, k, 1)
		r, c := runEpochs(t, a, k, 1)
		roots, cps = append(roots, r...), append(cps, c...)
	}
	journal := readFile(t, filepath.Join(refDir, journalName))
	pre := len(roots) - 1 // index of the boundary epoch
	if info, err := os.Stat(filepath.Join(dir, journalName)); err != nil || info.Size() != 0 {
		t.Fatalf("journal not compacted by the fold: %v", err)
	}
	name := snapshotName(cps[pre].Epoch)
	fileFrames := frames(t, readFile(t, filepath.Join(dir, name)))
	if len(fileFrames) < 3 {
		t.Fatalf("the file has %d frames", len(fileFrames))
	}
	flip := func(t *testing.T, dir string, frame int) {
		path := filepath.Join(dir, name)
		b := readFile(t, path)
		at := len(fileFrames[frame]) / 2
		for _, fr := range fileFrames[:frame] {
			at += len(fr)
		}
		b[at] ^= 0xff
		writeFile(t, path, b)
	}
	genesis := provisionFT(t).Net
	for pos, frame := range map[string]int{"first": 0, "middle": len(fileFrames) / 2, "last": len(fileFrames) - 1} {
		t.Run(pos, func(t *testing.T) {
			work := copyDir(t, dir)
			flip(t, work, frame)
			// A refused recovery leaves the network as it was and the
			// directory to be refused again.
			for try := 0; try < 2; try++ {
				n := provisionFT(t).Net
				st := openStore(t, work, WithSnapshotEvery(2))
				err := st.Recover(n)
				st.Close()
				if !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("recovery %d over a corrupt %s with a compacted journal: %v, want ErrCorruptSnapshot", try, name, err)
				}
				if n.StateRoot() != genesis.StateRoot() || n.Checkpoint() != genesis.Checkpoint() {
					t.Fatalf("recovery %d failed on %+v root %s, not on genesis", try, n.Checkpoint(), n.StateRoot())
				}
			}
		})
	}
	t.Run("journal not truncated", func(t *testing.T) {
		work := copyDir(t, dir)
		flip(t, work, len(fileFrames)/2)
		writeFile(t, filepath.Join(work, journalName), journal)
		b, st := recoverFresh(t, work, WithSnapshotEvery(2))
		defer st.Close()
		if got := b.Net.Checkpoint(); got != cps[pre] {
			t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[pre])
		}
		if got := b.Net.StateRoot(); got != roots[pre] {
			t.Fatalf("recovered root %s, want %s", got, roots[pre])
		}
		// The file recovery could not use is gone: the state rests on
		// genesis and the journal.
		if _, err := os.Stat(filepath.Join(work, name)); !errors.Is(err, os.ErrNotExist) || st.Chain() != 0 {
			t.Fatalf("unusable %s survived recovery (%d full files): %v", name, st.Chain(), err)
		}
		runEpochs(t, b, pre+2, 2)
		onlySnapshot(t, work)
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
			if full := stB.Chain(); full != 1 {
				t.Fatalf("the state rests on %d full files, want the one", full)
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

// TestIdleChainStaysBounded: a chain that goes idle — 200 empty epochs
// after four batches, the fold rule checked every second one — leaves
// a bounded directory: one snapshot file at most, and a journal whose
// replay cost stays below the state's leaves plus one interval, since
// an empty block costs one. A fresh recovery lands on the live root.
func TestIdleChainStaysBounded(t *testing.T) {
	const every, idle = 2, 200
	dir := t.TempDir()
	a := provisionFT(t)
	st := openStore(t, dir, WithSnapshotEvery(every))
	a.Net.AttachStateStore(st)
	runEpochs(t, a, 1, 4)
	for i := 0; i < idle; i++ {
		if _, err := a.Net.RunEpoch(); err != nil {
			t.Fatalf("idle epoch %d: %v", i, err)
		}
	}
	onlySnapshot(t, dir)
	if leaves := a.Net.StateLeaves(); st.journalCost >= leaves+every {
		t.Fatalf("after %d idle epochs the journal costs %d, the state has %d leaves", idle, st.journalCost, leaves)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, stB := recoverFresh(t, dir, WithSnapshotEvery(every))
	defer stB.Close()
	if got, want := b.Net.StateRoot(), a.Net.StateRoot(); got != want || b.Net.Checkpoint() != a.Net.Checkpoint() {
		t.Fatalf("recovered %+v root %s, live %+v root %s", b.Net.Checkpoint(), got, a.Net.Checkpoint(), want)
	}
	t.Logf("%d snapshot files written, journal cost %d of %d leaves", st.snapshots.Value(), st.journalCost, a.Net.StateLeaves())
}

// TestIncrementalFileRefused: a directory an earlier build wrote may
// hold an incremental snapshot file — a full file's records with a base
// marker (type 21) after the header — which this build does not read.
// Recovery over one fails with ErrCorruptSnapshot and restores nothing,
// whether or not a full file is beside it, and leaves the directory as
// it was; only a journal that still covers the file's epochs carries
// recovery past it, and then the file is removed.
func TestIncrementalFileRefused(t *testing.T) {
	ref := provisionFT(t)
	genesis := ref.Net.Checkpoint()
	refDir := t.TempDir()
	ref.Net.AttachStateStore(openStore(t, refDir, WithSnapshotEvery(0)))
	runEpochs(t, ref, 1, 2)
	mid := ref.Net.Checkpoint()
	var buf bytes.Buffer
	if err := writeFull(func(t wire.MsgType, payload []byte) error { return wire.WriteFrame(&buf, t, payload) }, ref.Net, mid); err != nil {
		t.Fatal(err)
	}
	full := frames(t, buf.Bytes())
	since := wire.AppendFrame(nil, 21, binary.AppendUvarint(nil, genesis.Epoch))
	incremental := bytes.Join(slices.Concat(full[:1], [][]byte{since}, full[1:]), nil)
	roots, cps := runEpochs(t, ref, 3, 2)
	journal := frames(t, readFile(t, filepath.Join(refDir, journalName)))

	genesisFile := t.TempDir()
	if _, err := writeSnapshotFile(genesisFile, snapshotName(genesis.Epoch), func(put putRecord) error {
		return writeFull(put, provisionFT(t).Net, genesis)
	}); err != nil {
		t.Fatal(err)
	}
	directory := func(t *testing.T, journal [][]byte, withFull bool) string {
		dir := t.TempDir()
		if withFull {
			dir = copyDir(t, genesisFile)
		}
		writeFile(t, filepath.Join(dir, snapshotName(mid.Epoch)), incremental)
		writeFile(t, filepath.Join(dir, journalName), bytes.Join(journal, nil))
		return dir
	}
	for _, c := range []struct {
		name     string
		journal  [][]byte
		withFull bool
	}{
		{"alone", nil, false},
		{"with its journal tail", journal[2:], false},
		{"over a full file, with its journal tail", journal[2:], true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := directory(t, c.journal, c.withFull)
			before := dirBytes(t, dir)
			n := provisionFT(t).Net
			root := n.StateRoot()
			st := openStore(t, dir)
			err := st.Recover(n)
			st.Close()
			if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "msg(21)") {
				t.Fatalf("recovery over an incremental file: %v, want ErrCorruptSnapshot", err)
			}
			if n.StateRoot() != root || n.Checkpoint() != genesis {
				t.Fatalf("a failed recovery left %+v root %s, genesis is %+v root %s", n.Checkpoint(), n.StateRoot(), genesis, root)
			}
			if after := dirBytes(t, dir); !maps.Equal(after, before) {
				t.Fatalf("a failed recovery changed the directory")
			}
		})
	}
	t.Run("covered by the journal", func(t *testing.T) {
		dir := directory(t, journal, true)
		b, st := recoverFresh(t, dir)
		defer st.Close()
		if got := b.Net.StateRoot(); got != roots[1] || b.Net.Checkpoint() != cps[1] {
			t.Fatalf("recovered %+v root %s, want %+v root %s", b.Net.Checkpoint(), got, cps[1], roots[1])
		}
		if sf := onlySnapshot(t, dir); sf == nil || sf.hdr.Checkpoint != genesis {
			t.Fatalf("after recovery the directory holds %v, want the full file of genesis alone", sf)
		}
	})
}
