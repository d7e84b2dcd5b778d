package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cosplit/internal/shard"
)

// journalBlocks appends n synthetic FinalBlocks (epochs 0..n-1) to a
// fresh store with snapshots disabled, so the journal holds every one.
func journalBlocks(t *testing.T, dir string, n int) *Store {
	t.Helper()
	st := openStore(t, dir, WithSnapshotEvery(0))
	for e := 0; e < n; e++ {
		fb := &shard.FinalBlock{Epoch: uint64(e), StateRoot: fmt.Sprintf("root-%d", e)}
		cp := shard.Checkpoint{Epoch: uint64(e + 1), BlockNumber: uint64(e + 1)}
		if err := st.EpochCommitted(nil, fb, cp); err != nil {
			t.Fatalf("journal epoch %d: %v", e, err)
		}
	}
	return st
}

// TestBlocksServesJournaledRange reads FinalBlock ranges back out of
// the journal — the DS committee's fallback source for replica
// catch-up requests older than its in-memory ring.
func TestBlocksServesJournaledRange(t *testing.T) {
	st := journalBlocks(t, t.TempDir(), 6)
	defer st.Close()

	blocks, err := st.Blocks(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("Blocks(2, 5) returned %d blocks, want 3", len(blocks))
	}
	for i, fb := range blocks {
		if want := uint64(2 + i); fb.Epoch != want || fb.StateRoot != fmt.Sprintf("root-%d", want) {
			t.Errorf("blocks[%d] = epoch %d root %s, want epoch %d", i, fb.Epoch, fb.StateRoot, want)
		}
	}
	if blocks, err = st.Blocks(0, 100); err != nil || len(blocks) != 6 {
		t.Fatalf("Blocks(0, 100) = %d blocks, %v; want all 6", len(blocks), err)
	}
	if blocks, err = st.Blocks(4, 4); err != nil || len(blocks) != 0 {
		t.Fatalf("Blocks(4, 4) = %d blocks, %v; want empty", len(blocks), err)
	}
	if blocks, err = st.Blocks(50, 60); err != nil || len(blocks) != 0 {
		t.Fatalf("Blocks(50, 60) = %d blocks, %v; want empty", len(blocks), err)
	}
}

// TestBlocksTornTail cuts the journal mid-frame: Blocks must serve
// everything before the tear and stop, exactly like recovery.
func TestBlocksTornTail(t *testing.T) {
	dir := t.TempDir()
	st := journalBlocks(t, dir, 4)
	defer st.Close()

	path := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	blocks, err := st.Blocks(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("Blocks over torn journal = %d blocks, want the 4 intact ones", len(blocks))
	}
}

// TestBlocksDecodesOnlyWhatItServes: serving the newest block of a
// journal allocates as much over 40 journaled blocks as over 4. Blocks
// places each record by its checkpoint and decodes only the blocks it
// returns; a scan that decoded, or allocated, per skipped record would
// cost ten times as much at the longer journal.
func TestBlocksDecodesOnlyWhatItServes(t *testing.T) {
	allocs := func(n int) float64 {
		st := journalBlocks(t, t.TempDir(), n)
		defer st.Close()
		last := uint64(n - 1)
		return testing.AllocsPerRun(20, func() {
			blocks, err := st.Blocks(last, last+1)
			if err != nil || len(blocks) != 1 || blocks[0].Epoch != last {
				t.Fatalf("Blocks(%d, %d) = %d blocks, %v", last, last+1, len(blocks), err)
			}
		})
	}
	short, long := allocs(4), allocs(40)
	if short != long {
		t.Errorf("serving the newest block allocates %.0f times over 4 journaled blocks and %.0f over 40", short, long)
	}
	t.Logf("%.0f allocations to serve the newest block, at 4 and 40 journaled blocks", short)
}

// TestBlocksCompactionHorizon runs a real network with a snapshot
// cadence until a boundary folds the journal into a snapshot file, and
// one epoch more: the fold truncated the journal, so Blocks can only
// serve the one epoch after it — the gap a far-behind replica is sent a
// state image for.
func TestBlocksCompactionHorizon(t *testing.T) {
	dir := t.TempDir()
	env := provisionFT(t)
	st := openStore(t, dir, WithSnapshotEvery(2))
	env.Net.AttachStateStore(st)
	defer st.Close()

	base := env.Net.Checkpoint().Epoch
	k := 1
	for ; st.snapshots.Value() == 0; k++ {
		if k > 12 {
			t.Fatalf("no fold in %d epochs", k)
		}
		runEpochs(t, env, k, 1)
	}
	lastSnap := env.Net.Checkpoint().Epoch // the fold's checkpoint
	roots, _ := runEpochs(t, env, k, 1)

	blocks, err := st.Blocks(0, base+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("journal holds %d blocks after compaction at checkpoint %d, want 1", len(blocks), lastSnap)
	}
	if blocks[0].Epoch != lastSnap {
		t.Errorf("surviving block epoch %d, want %d", blocks[0].Epoch, lastSnap)
	}
	if blocks[0].StateRoot != roots[0] {
		t.Errorf("surviving block root %s, want %s", blocks[0].StateRoot, roots[0])
	}
	// The compacted-away prefix is gone: a request for it comes back
	// empty rather than partial-from-zero.
	old, err := st.Blocks(0, lastSnap)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Errorf("Blocks over compacted epochs returned %d blocks, want none", len(old))
	}
}
