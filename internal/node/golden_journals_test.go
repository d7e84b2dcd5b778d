package node

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cosplit/internal/shard"
	"cosplit/internal/store"
)

// The journal is a format other builds must read: these tests pin its
// bytes the way golden_roots.json pins the roots. golden_journals.json
// holds, per golden scenario, the SHA-256 of the journal the committee
// and shard 0's replica write when a ChanNetwork cluster runs the
// scenario with snapshots off; parent_state/ is a committee state
// directory (one snapshot, one journaled block after it) written by the
// same run of the "FT transfer" scenario. Both were generated by the
// build before journals were appended from the sealed payload
// (ISSUE 17) and must not change with it:
//
//	go test ./internal/node -run 'TestGoldenJournals|TestParentStateDirRecovers' -update-golden
//
// rewrites them; do that only for a deliberate format change. One
// scenario needed help: that build listed the deltas of a run over
// several contracts in map order, so "Router chain" (two contracts on
// the DS committee) journaled different bytes from run to run; its
// digests were taken with that build's extractDeltas sorted by address,
// as it is now.

const (
	goldenJournalsPath = "testdata/golden_journals.json"
	parentStateDir     = "testdata/parent_state"
	parentStateName    = "FT transfer"
)

// journaledCluster drives a golden scenario through a journaling
// ChanNetwork cluster rooted at dir, snapshotting every `every` epochs
// counted from genesis (0: never), and returns the final root.
func journaledCluster(t *testing.T, sc goldenScenario, dir string, every int) string {
	t.Helper()
	opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
	genesis := func() (*shard.Network, error) { return sc.genesis(opts...) }
	if every > 0 {
		probe, err := genesis()
		if err != nil {
			t.Fatal(err)
		}
		every += int(probe.Checkpoint().Epoch)
	}
	cluster, err := NewCluster(genesis, ClusterStateDir(dir, every))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	next, err := sc.stream()
	if err != nil {
		t.Fatal(err)
	}
	var root string
	for e := 0; e < goldenEpochs; e++ {
		for i := 0; i < goldenPerEpoch; i++ {
			if _, err := cluster.Lookup.SubmitTx(next()); err != nil {
				t.Fatalf("epoch %d: submit: %v", e, err)
			}
		}
		res := cluster.Tick()
		if res.Err != nil {
			t.Fatalf("epoch %d: tick: %v", e, res.Err)
		}
		root = res.Root
	}
	// Close drains the replicas' last FinalBlock into their journals.
	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	return root
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestGoldenJournals asserts the recorded journal digests: the
// committee's (encoded once, at its journal step) and a replica's (the
// payload it received, behind its own checkpoint).
func TestGoldenJournals(t *testing.T) {
	golden := map[string]map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenJournalsPath)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			journaledCluster(t, sc, dir, 0)
			got := map[string]string{}
			for _, role := range []string{"ds", "shard-0"} {
				got[role] = fileSHA256(t, filepath.Join(dir, role, "journal.log"))
			}
			if *updateGolden {
				golden[sc.name] = got
				return
			}
			if !reflect.DeepEqual(got, golden[sc.name]) {
				t.Errorf("journal digests %v, golden %v", got, golden[sc.name])
			}
		})
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenJournalsPath, append(raw, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentStateDirRecovers recovers the committed state directory —
// snapshot, then the journal tail — with this build's reader, writable
// and read-only, and requires the scenario's golden final root; a fresh
// run of the same scenario must also write the same two files.
func TestParentStateDirRecovers(t *testing.T) {
	var sc goldenScenario
	for _, s := range goldenScenarios() {
		if s.name == parentStateName {
			sc = s
		}
	}
	fresh := t.TempDir()
	root := journaledCluster(t, sc, fresh, 2)
	ents, err := os.ReadDir(filepath.Join(fresh, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.RemoveAll(parentStateDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(parentStateDir, 0o777); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(fresh, "ds", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(parentStateDir, e.Name()), raw, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_roots.json"))
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string][]string{}
	if err := json.Unmarshal(raw, &roots); err != nil {
		t.Fatal(err)
	}
	want := roots[parentStateName][goldenEpochs-1]
	if root != want {
		t.Fatalf("fresh run ended on root %s, golden %s", root, want)
	}

	committed, err := os.ReadDir(parentStateDir)
	if err != nil {
		t.Fatalf("missing committed state directory (run with -update-golden): %v", err)
	}
	if len(committed) != 2 || len(ents) != 2 {
		t.Fatalf("state directory holds %d files, a fresh run wrote %d, want a snapshot and a journal", len(committed), len(ents))
	}
	work := t.TempDir() // Recover may truncate a journal; not the committed one
	for _, e := range committed {
		old := fileSHA256(t, filepath.Join(parentStateDir, e.Name()))
		if now := fileSHA256(t, filepath.Join(fresh, "ds", e.Name())); now != old {
			t.Errorf("%s: this build writes %s, the committed file is %s", e.Name(), now, old)
		}
		raw, err := os.ReadFile(filepath.Join(parentStateDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, e.Name()), raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := os.Stat(filepath.Join(work, "journal.log")); err != nil || info.Size() == 0 {
		t.Fatalf("committed journal is empty or missing: %v", err)
	}

	opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
	recovered, err := sc.genesis(opts...)
	if err != nil {
		t.Fatal(err)
	}
	genesisEpoch := recovered.Checkpoint().Epoch
	st, err := store.Open(work, store.WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Recover(recovered); err != nil {
		t.Fatal(err)
	}
	if got := recovered.StateRoot(); got != want {
		t.Errorf("root %s, golden %s", got, want)
	}
	if got := recovered.RecomputeStateRoot(); got != want {
		t.Errorf("recomputed root %s, golden %s", got, want)
	}
	if got := recovered.Checkpoint().Epoch; got != genesisEpoch+goldenEpochs {
		t.Errorf("epoch %d, want %d", got, genesisEpoch+goldenEpochs)
	}
}

// TestParentStateDirContinues picks the committed state directory up
// where the build that wrote it left off: recover it, run on with the
// fold rule checked at every epoch, and recover again after each. The
// boundaries below the fold write nothing — the journal, the replayed
// block and the new ones, is the record since the old build's full
// file, which stays as it is — until the journal costs a state's worth
// of replay, when a full file of this build replaces it.
func TestParentStateDirContinues(t *testing.T) {
	var sc goldenScenario
	for _, s := range goldenScenarios() {
		if s.name == parentStateName {
			sc = s
		}
	}
	work := t.TempDir()
	committed, err := os.ReadDir(parentStateDir)
	if err != nil {
		t.Fatal(err)
	}
	var fullName string
	for _, e := range committed {
		raw, err := os.ReadFile(filepath.Join(parentStateDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, e.Name()), raw, 0o666); err != nil {
			t.Fatal(err)
		}
		if e.Name() != "journal.log" {
			fullName = e.Name()
		}
	}
	opts := append([]shard.Option{shard.WithShards(goldenShards)}, sc.opts...)
	recoverWork := func() (*shard.Network, *store.Store) {
		t.Helper()
		n, err := sc.genesis(opts...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(work, store.WithSnapshotEvery(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Recover(n); err != nil {
			t.Fatal(err)
		}
		n.AttachStateStore(st)
		return n, st
	}
	next, err := sc.stream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenEpochs*goldenPerEpoch; i++ {
		next() // what the directory already holds
	}
	live, st := recoverWork()
	// Small epochs: with the replayed 120-transaction block the journal
	// stays below the state's size for a boundary or more, then folds.
	const perEpoch, boundaries = 8, 6
	oldSum := fileSHA256(t, filepath.Join(parentStateDir, fullName))
	below, folded := 0, false
	for boundary := 1; boundary <= boundaries && !folded; boundary++ {
		for i := 0; i < perEpoch; i++ {
			live.Submit(next())
		}
		stats, err := live.RunEpoch()
		if err != nil || stats.Committed != perEpoch {
			t.Fatalf("boundary %d: committed %d of %d: %v", boundary, stats.Committed, perEpoch, err)
		}
		var snaps []string
		ents, err := os.ReadDir(work)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() != "journal.log" {
				snaps = append(snaps, e.Name())
			}
		}
		if len(snaps) != 1 || st.Chain() != 1 {
			t.Fatalf("boundary %d: the directory holds %v, the store rests on %d full files; want one", boundary, snaps, st.Chain())
		}
		if folded = snaps[0] != fullName; !folded {
			below++
			if now := fileSHA256(t, filepath.Join(work, fullName)); now != oldSum {
				t.Fatalf("boundary %d: %s changed below the fold", boundary, fullName)
			}
		} else if info, err := os.Stat(filepath.Join(work, "journal.log")); err != nil || info.Size() != 0 {
			t.Fatalf("boundary %d: the fold left the journal at %v bytes: %v", boundary, info.Size(), err)
		}
		t.Logf("boundary %d: %v, journal folded %v", boundary, snaps, folded)
		// Kill and recover: the process resumes from the recovered
		// network, so a wrong file would also derail the next epoch.
		recovered, st2 := recoverWork()
		if got, want := recovered.StateRoot(), live.StateRoot(); got != want || recovered.RecomputeStateRoot() != want {
			t.Fatalf("boundary %d: recovered root %s (recomputed %s), live %s", boundary, got, recovered.RecomputeStateRoot(), want)
		}
		if got, want := recovered.Checkpoint(), live.Checkpoint(); got != want {
			t.Fatalf("boundary %d: recovered checkpoint %+v, live %+v", boundary, got, want)
		}
		live, st = recovered, st2
	}
	if below == 0 || !folded {
		t.Fatalf("%d boundaries below the fold, folded %v: want the old file kept for one at least, then a fold", below, folded)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
