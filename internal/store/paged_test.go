package store

import (
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/obs"
	"cosplit/internal/pager"
	"cosplit/internal/scilla/value"
	"cosplit/internal/workload"
)

// tinyPaged forces the pager through constant eviction and faulting:
// a budget far below even this small network's working set, so every
// epoch exercises evict-then-fault round-trips on both account pages
// and contract states.
func tinyPaged() Option {
	return WithPagedState(8<<10, pager.WithPageCount(64))
}

func TestPagedModeBitIdenticalToSnapshotMode(t *testing.T) {
	snapDir, pagedDir := t.TempDir(), t.TempDir()

	a := provisionFT(t)
	stA := openStore(t, snapDir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)

	b := provisionFT(t)
	stB := openStore(t, pagedDir, WithSnapshotEvery(2), tinyPaged())
	if err := stB.Recover(b.Net); err != nil {
		t.Fatalf("paged recover (fresh dir): %v", err)
	}
	b.Net.AttachStateStore(stB)

	rootsA, cpsA := runEpochs(t, a, 1, 7)
	rootsB, cpsB := runEpochs(t, b, 1, 7)
	for i := range rootsA {
		if rootsA[i] != rootsB[i] || cpsA[i] != cpsB[i] {
			t.Fatalf("epoch %d diverged: snapshot-mode root %s cp %+v, paged root %s cp %+v",
				i+1, rootsA[i], cpsA[i], rootsB[i], cpsB[i])
		}
	}
	// Eviction must never corrupt the incremental trie: a full recompute
	// (which faults every page back in) agrees with it.
	if inc, full := b.Net.StateRoot(), b.Net.RecomputeStateRoot(); inc != full {
		t.Fatalf("paged incremental root %s != recomputed %s", inc, full)
	}
	// Paged mode writes no snapshot files — the page index replaces them.
	if snaps := snapshotsIn(pagedDir); len(snaps) != 0 {
		t.Fatalf("paged dir grew snapshot files: %v", snaps)
	}
	if !hasPagedState(pagedDir) {
		t.Fatal("paged dir has no committed page index after 7 epochs at cadence 2")
	}
}

// TestPagedEvictionInsideCommitPhase: the commit merges into the state
// Snapshot hands out, in place, and a phase that touches two contracts
// acquires the second after it has written the first. With a budget
// neither contract fits in, that acquisition evicts the first — written
// back if it was dirty, simply dropped if a flush had left it clean —
// before the phase re-installs it. Roots must still match a
// snapshot-mode run epoch by epoch, and a recovery from the paged
// directory alone must land on the same state: nothing the phase merged
// may be lost with the eviction.
func TestPagedEvictionInsideCommitPhase(t *testing.T) {
	query := workload.FTTransfer().Query
	provision := func() (*workload.Env, chain.Address) {
		env := provisionFT(t)
		second, err := env.Net.DeployContract(env.Owner, contracts.FungibleToken, map[string]value.Value{
			"contract_owner": env.Owner.Value(),
			"token_name":     value.Str{S: "Second"},
			"token_symbol":   value.Str{S: "SND"},
			"decimals":       value.Uint32V(6),
			"init_supply":    value.Uint128(1 << 40),
		}, &query)
		if err != nil {
			t.Fatalf("deploy second token: %v", err)
		}
		return env, second
	}
	// Every epoch the users move the first token and native funds
	// (epochBatch) and the owner hands out the second token, so both
	// contracts are merged in the shards' phase.
	run := func(env *workload.Env, second chain.Address, first, nepochs int) (roots []string) {
		for k := first; k < first+nepochs; k++ {
			for _, tx := range epochBatch(env.Contract, env.Users, uint64(k)) {
				env.Net.Submit(tx)
			}
			nonce := env.Net.Accounts.Get(env.Owner).Nonce
			for i := 0; i < 4; i++ {
				nonce++
				env.Net.Submit(&chain.Tx{
					Kind: chain.TxCall, From: env.Owner, To: second, Nonce: nonce,
					Amount: big.NewInt(0), GasLimit: 100_000, GasPrice: 1,
					Transition: "Transfer",
					Args: map[string]value.Value{
						"to": env.Users[(k*4+i)%len(env.Users)].Value(), "amount": value.Uint128(3),
					},
				})
			}
			stats, err := env.Net.RunEpoch()
			if err != nil {
				t.Fatalf("epoch %d: %v", k, err)
			}
			if stats.Failed > 0 || stats.Committed != 44 {
				t.Fatalf("epoch %d: committed %d, failed %d", k, stats.Committed, stats.Failed)
			}
			roots = append(roots, env.Net.StateRoot())
		}
		return roots
	}

	a, secondA := provision()
	stA := openStore(t, t.TempDir(), WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	defer stA.Close()
	want := run(a, secondA, 1, 8)

	pagedDir := t.TempDir()
	reg := obs.NewRegistry()
	paged := WithPagedState(8<<10, pager.WithPageCount(64), pager.WithRegistry(reg))
	b, secondB := provision()
	stB := openStore(t, pagedDir, WithSnapshotEvery(2), paged)
	if err := stB.Recover(b.Net); err != nil {
		t.Fatalf("paged recover (fresh dir): %v", err)
	}
	b.Net.AttachStateStore(stB)
	got := run(b, secondB, 1, 6)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("epoch %d: paged root %s, snapshot-mode root %s", i+1, got[i], want[i])
		}
	}
	if inc, full := b.Net.StateRoot(), b.Net.RecomputeStateRoot(); inc != full {
		t.Fatalf("paged incremental root %s != recomputed %s", inc, full)
	}
	if n := reg.Snapshot().Counters["pager.evictions"]; n == 0 {
		t.Fatal("no eviction happened: the budget does not force the case under test")
	}
	// Kill -9, recover from the directory with a cold cache, resume.
	c, secondC := provision()
	stC := openStore(t, pagedDir, WithSnapshotEvery(2), tinyPaged())
	if err := stC.Recover(c.Net); err != nil {
		t.Fatalf("recover: %v", err)
	}
	c.Net.AttachStateStore(stC)
	defer stC.Close()
	if root := c.Net.StateRoot(); root != want[5] {
		t.Fatalf("recovered root %s, want %s", root, want[5])
	}
	if inc, full := c.Net.StateRoot(), c.Net.RecomputeStateRoot(); inc != full {
		t.Fatalf("recovered incremental root %s != recomputed %s", inc, full)
	}
	for i, root := range run(c, secondC, 7, 2) {
		if root != want[6+i] {
			t.Fatalf("resumed epoch %d: root %s, want %s", 7+i, root, want[6+i])
		}
	}
}

// TestPagedCrossModeBitIdentical pins the acceptance criterion that a
// run whose state lives behind a starved page cache stays bit-identical
// to an unpaged, storeless one: execution faults and evicts pages as it
// goes, and none of it may leak into roots, checkpoints, or tx ids. (The
// one subtest keeps the name it had when the pipeline had other modes
// than running shards back to back.)
func TestPagedCrossModeBitIdentical(t *testing.T) {
	ref := provisionFT(t)
	refRoots, refCps := runEpochs(t, ref, 1, 5)

	t.Run("sequential", func(t *testing.T) {
		env := provisionFT(t)
		st := openStore(t, t.TempDir(), WithSnapshotEvery(2), tinyPaged())
		if err := st.Recover(env.Net); err != nil {
			t.Fatalf("paged recover (fresh dir): %v", err)
		}
		env.Net.AttachStateStore(st)
		defer st.Close()
		roots, cps := runEpochs(t, env, 1, 5)
		for i := range roots {
			if roots[i] != refRoots[i] || cps[i] != refCps[i] {
				t.Fatalf("epoch %d diverged from the unpaged run: root %s cp %+v, want %s %+v",
					i+1, roots[i], cps[i], refRoots[i], refCps[i])
			}
		}
	})
}

func TestPagedRecoverColdCache(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2), tinyPaged())
	if err := stA.Recover(a.Net); err != nil {
		t.Fatalf("recover fresh: %v", err)
	}
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)
	// Kill -9: no Close, no flush of the cache beyond what epochs forced.

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(2), tinyPaged())
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != cps[4] {
		t.Fatalf("recovered checkpoint %+v, want %+v", got, cps[4])
	}
	if got := b.Net.StateRoot(); got != roots[4] {
		t.Fatalf("recovered root %s, want %s", got, roots[4])
	}
	// Resuming the deterministic stream lands on the identical chain.
	// The reference is an independent storeless run of the same stream —
	// the killed process cannot serve as one, because its pager still
	// points into the directory the recovered process now owns.
	ref := provisionFT(t)
	refRoots, refCps := runEpochs(t, ref, 1, 7)
	moreB, moreCpsB := runEpochs(t, b, 6, 2)
	for i := range moreB {
		if moreB[i] != refRoots[5+i] || moreCpsB[i] != refCps[5+i] {
			t.Fatalf("resumed epoch %d diverged: %s %+v vs %s %+v",
				6+i, moreB[i], moreCpsB[i], refRoots[5+i], refCps[5+i])
		}
	}
}

func TestPagedTornJournalTailTruncated(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(4), tinyPaged())
	if err := stA.Recover(a.Net); err != nil {
		t.Fatalf("recover fresh: %v", err)
	}
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)

	path := filepath.Join(dir, journalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatalf("test expects a journal tail past the last flush")
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	b, stB := recoverFresh(t, dir, WithSnapshotEvery(4), tinyPaged())
	defer stB.Close()
	if got := b.Net.Checkpoint(); got != cps[3] {
		t.Fatalf("recovered checkpoint %+v, want pre-tear %+v", got, cps[3])
	}
	if got := b.Net.StateRoot(); got != roots[3] {
		t.Fatalf("recovered root %s, want %s", got, roots[3])
	}
	rr, rcps := runEpochs(t, b, 5, 1)
	if rr[0] != roots[4] || rcps[0] != cps[4] {
		t.Fatalf("re-run epoch: root %s cp %+v, want %s %+v", rr[0], rcps[0], roots[4], cps[4])
	}
}

func TestPagedRestoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2), tinyPaged())
	if err := stA.Recover(a.Net); err != nil {
		t.Fatalf("recover fresh: %v", err)
	}
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)

	// A replica catches up read-only from the paged directory into its
	// own (resident) backend; the owner's files must not change.
	before := dirListing(t, dir)
	b := provisionFT(t)
	if err := Restore(dir, b.Net); err != nil {
		t.Fatalf("paged restore: %v", err)
	}
	if got := b.Net.Checkpoint(); got != cps[4] {
		t.Fatalf("restored checkpoint %+v, want %+v", got, cps[4])
	}
	if got := b.Net.StateRoot(); got != roots[4] {
		t.Fatalf("restored root %s, want %s", got, roots[4])
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("read-only restore changed the directory:\nbefore %s\nafter  %s", before, after)
	}
}

// dirListing renders dir (recursively) as name:size lines, for
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
