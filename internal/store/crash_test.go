package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// frames splits a journal or snapshot file's bytes at its frame edges.
func frames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(raw) > 0 {
		if len(raw) < wire.HeaderLen {
			t.Fatalf("%d stray bytes after the last frame", len(raw))
		}
		n := wire.HeaderLen + int(binary.BigEndian.Uint32(raw[4:8]))
		if n > len(raw) {
			t.Fatalf("frame of %d bytes, %d left", n, len(raw))
		}
		out = append(out, raw[:n])
		raw = raw[n:]
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSweepsTempSnapshots: a process killed inside a snapshot
// leaves snapshot-<E>.snap.tmp behind, up to the size of the state, and
// no later boundary reuses the name. Recover removes it; serving
// catch-up from the directory (Store.Blocks and a state image) does not.
func TestRecoverSweepsTempSnapshots(t *testing.T) {
	dir := t.TempDir()
	a := provisionFT(t)
	stA := openStore(t, dir, WithSnapshotEvery(2))
	a.Net.AttachStateStore(stA)
	roots, cps := runEpochs(t, a, 1, 5)
	snaps := snapshotsIn(dir)
	tmp := filepath.Join(dir, snapshotName(cps[4].Epoch+1)+tmpSuffix)
	writeFile(t, tmp, imageOf(t, a.Net)[:100]) // a full file torn after 100 bytes

	serveCatchUp(t, stA, a.Net, dir)
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("serving catch-up touched %s: %v", tmp, err)
	}
	stA.Close()
	b, st := recoverFresh(t, dir, WithSnapshotEvery(2))
	defer st.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s survived Recover: %v", tmp, err)
	}
	if got := b.Net.StateRoot(); got != roots[4] || b.Net.Checkpoint() != cps[4] {
		t.Fatalf("recovered %+v root %s, want %+v root %s", b.Net.Checkpoint(), got, cps[4], roots[4])
	}
	if got := snapshotsIn(dir); !slices.Equal(got, snaps) {
		t.Fatalf("the sweep changed the snapshot files: %v, was %v", got, snaps)
	}
}

// TestCrashStatesAroundBoundary builds, from copies of a real run's
// directory, every state a crash can leave around a snapshot boundary.
// At a boundary below the fold — "incremental": the journal goes on as
// the record of what changed since the file — the one write is the
// journal append. At the boundary that folds — "full" — the write
// sequence is journal append, temp file, rename, journal truncation,
// deletion of the older file. From each state Recover must land on a
// root the run committed, the one the state dictates; a second Recover
// must agree; and the recovered store must run on over the next
// boundary and recover again.
func TestCrashStatesAroundBoundary(t *testing.T) {
	const every = 2
	// Each epoch of 30 senders costs the journal about 90 against the
	// state's 406 leaves. The run under test starts on a full file of
	// genesis, as a directory does after a fold, crosses two boundaries
	// below the fold, folds at the third (a journal of cost 447) and
	// crosses one more below it; the reference runs further than any
	// crash state resumes to.
	const senders, epochs = 30, 12

	// The reference run never snapshots: its journal is every block's
	// frame, and its roots are what the run committed.
	ref := provisionFT(t)
	genesis := ref.Net.Checkpoint()
	refDir := t.TempDir()
	ref.Net.AttachStateStore(openStore(t, refDir, WithSnapshotEvery(0)))
	roots, cps := runBatches(t, ref, senders, 1, epochs)
	blocks := frames(t, readFile(t, filepath.Join(refDir, journalName)))
	if len(blocks) != epochs {
		t.Fatalf("reference journal holds %d frames, want %d", len(blocks), epochs)
	}
	// at(k) is the state after batch k; batch k's block is blocks[k-1].
	at := func(k int) (string, shard.Checkpoint) {
		if k == 0 {
			return provisionFT(t).Net.StateRoot(), genesis
		}
		return roots[k-1], cps[k-1]
	}

	// check recovers dir twice, expecting the state after batch k, then
	// runs on past the next boundary and recovers a third time.
	check := func(t *testing.T, dir string, k int) {
		t.Helper()
		wantRoot, wantCp := at(k)
		for pass := 1; pass <= 2; pass++ {
			env, st := recoverFresh(t, dir, WithSnapshotEvery(every))
			if got := env.Net.StateRoot(); got != wantRoot || env.Net.Checkpoint() != wantCp {
				t.Fatalf("recovery %d: %+v root %s, want the state after batch %d: %+v root %s",
					pass, env.Net.Checkpoint(), got, k, wantCp, wantRoot)
			}
			if got := env.Net.RecomputeStateRoot(); got != wantRoot {
				t.Fatalf("recovery %d: recomputed root %s, want %s", pass, got, wantRoot)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
				t.Fatalf("recovery %d left %v", pass, tmps)
			}
			onlySnapshot(t, dir)
			if pass == 1 {
				st.Close()
				continue
			}
			more, moreCps := runBatches(t, env, senders, k+1, every+1)
			for i := range more {
				if r, cp := at(k + 1 + i); more[i] != r || moreCps[i] != cp {
					t.Fatalf("resumed batch %d: %+v root %s, the run committed %+v root %s", k+1+i, moreCps[i], more[i], cp, r)
				}
			}
			k += every + 1
			wantRoot, wantCp = at(k)
			// No Close: the run is killed again.
			again, st := recoverFresh(t, dir, WithSnapshotEvery(every))
			defer st.Close()
			if got := again.Net.StateRoot(); got != wantRoot || again.Net.Checkpoint() != wantCp {
				t.Fatalf("recovery after resuming: %+v root %s, want %+v root %s", again.Net.Checkpoint(), got, wantCp, wantRoot)
			}
			onlySnapshot(t, dir)
		}
	}

	// The run under test, on a directory holding a full file of
	// genesis, stopped at each boundary for its directory just before
	// the boundary's epoch and just after.
	a := provisionFT(t)
	dir := t.TempDir()
	if _, err := writeSnapshotFile(dir, snapshotName(genesis.Epoch), func(put putRecord) error {
		return writeFull(put, a.Net, genesis)
	}); err != nil {
		t.Fatal(err)
	}
	stA := openStore(t, dir, WithSnapshotEvery(every))
	if err := stA.Recover(a.Net); err != nil {
		t.Fatal(err)
	}
	a.Net.AttachStateStore(stA)
	sawFull, sawIncremental := false, false
	for k := 1; k <= epochs-(every+1); k++ {
		boundary := cps[k-1].Epoch%every == 0
		var before string
		if boundary {
			before = copyDir(t, dir)
		}
		filesBefore := stA.snapshots.Value()
		runBatches(t, a, senders, k, 1)
		if !boundary {
			continue
		}
		full := stA.snapshots.Value() > filesBefore
		sawFull, sawIncremental = sawFull || full, sawIncremental || !full
		kind := "incremental"
		if full {
			kind = "full"
		}
		journal := readFile(t, filepath.Join(before, journalName))
		// state builds one crash state from the directory before the
		// boundary's epoch.
		state := func(t *testing.T, journal []byte, files map[string][]byte) string {
			d := copyDir(t, before)
			writeFile(t, filepath.Join(d, journalName), journal)
			for name, raw := range files {
				writeFile(t, filepath.Join(d, name), raw)
			}
			return d
		}
		appended := append(append([]byte{}, journal...), blocks[k-1]...)

		t.Run(fmt.Sprintf("batch %d %s/journal append torn", k, kind), func(t *testing.T) {
			torn := appended[:len(journal)+len(blocks[k-1])/2]
			check(t, state(t, torn, nil), k-1)
		})
		if full {
			name := snapshotName(cps[k-1].Epoch)
			file := readFile(t, filepath.Join(dir, name))
			cut := 0
			for i, fr := range append(frames(t, file), nil) {
				t.Run(fmt.Sprintf("batch %d %s/temp file torn at frame %d", k, kind, i), func(t *testing.T) {
					check(t, state(t, appended, map[string][]byte{name + tmpSuffix: file[:cut]}), k)
				})
				if fr != nil {
					t.Run(fmt.Sprintf("batch %d %s/temp file torn inside frame %d", k, kind, i), func(t *testing.T) {
						check(t, state(t, appended, map[string][]byte{name + tmpSuffix: file[:cut+len(fr)/2]}), k)
					})
				}
				cut += len(fr)
			}
			t.Run(fmt.Sprintf("batch %d %s/renamed, journal not truncated", k, kind), func(t *testing.T) {
				check(t, state(t, appended, map[string][]byte{name: file}), k)
			})
			if len(snapshotsIn(before)) != 1 {
				t.Fatalf("batch %d: the directory before the fold holds %v, want the older file", k, snapshotsIn(before))
			}
			t.Run(fmt.Sprintf("batch %d %s/journal truncated, nothing deleted", k, kind), func(t *testing.T) {
				check(t, state(t, nil, map[string][]byte{name: file}), k)
			})
		}
		t.Run(fmt.Sprintf("batch %d %s/torn journal tail after the boundary", k, kind), func(t *testing.T) {
			d := copyDir(t, dir)
			tail := readFile(t, filepath.Join(d, journalName))
			writeFile(t, filepath.Join(d, journalName), append(tail, blocks[k][:len(blocks[k])-9]...))
			check(t, d, k)
		})
	}
	if !sawFull || !sawIncremental {
		t.Fatalf("the run crossed no boundary of each kind: full %v, incremental %v", sawFull, sawIncremental)
	}
}
