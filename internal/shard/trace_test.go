package shard_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func payTx(from, to chain.Address, nonce, amount uint64) *chain.Tx {
	return &chain.Tx{
		Kind:     chain.TxTransfer,
		From:     from,
		To:       to,
		Nonce:    nonce,
		Amount:   new(big.Int).SetUint64(amount),
		GasLimit: 1,
		GasPrice: 1,
	}
}

// normalizeTrace zeroes the host-measured duration fields (every
// "*_ns" key except the injected-clock timestamp "t_ns") and
// re-serialises each event with sorted keys, so the remaining JSONL is
// fully deterministic: routing, shard placement, counts, sequencing.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	var out strings.Builder
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, line)
		}
		for k := range m {
			if strings.HasSuffix(k, "_ns") && k != "t_ns" {
				m[k] = 0
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

// goldenTrace runs the scenario testdata/trace_golden.jsonl records
// and returns the normalised JSONL trace. Two shards, a 3-gas
// MicroBlock budget (transfers cost 1 gas), two epochs and an injected
// journal clock.
func goldenTrace(t *testing.T) string {
	t.Helper()
	return goldenTraceBy(t, func(net *shard.Network) error {
		_, err := net.RunEpoch()
		return err
	})
}

// goldenTraceBy is goldenTrace with each epoch run by runEpoch.
func goldenTraceBy(t *testing.T, runEpoch func(*shard.Network) error) string {
	t.Helper()
	var buf bytes.Buffer
	var tick time.Duration
	journal := obs.NewJournal(&buf, obs.WithClock(func() time.Duration {
		tick += time.Microsecond
		return tick
	}))
	net := shard.NewNetwork(
		shard.WithShards(2),
		shard.WithGasLimits(3, 1000),
		shard.WithRecorder(journal),
	)
	alice := chain.AddrFromUint(1)
	bob := chain.AddrFromUint(2)
	net.CreateUser(alice, 1_000_000)
	net.CreateUser(bob, 1_000_000)

	// Five transfers from one sender land on its home shard and exceed
	// the 3-gas budget: two are deferred, requeued, and commit in epoch
	// 2. A duplicated nonce and an unknown sender exercise the
	// dispatcher's rejection labels.
	for n := uint64(1); n <= 5; n++ {
		net.Submit(payTx(alice, bob, n, 10))
	}
	net.Submit(payTx(alice, bob, 5, 10))                  // replayed nonce
	net.Submit(payTx(chain.AddrFromUint(99), bob, 1, 10)) // unknown sender
	for e := 0; e < 2; e++ {
		if err := runEpoch(net); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	return normalizeTrace(t, buf.Bytes())
}

// TestGoldenTraceSchema compares goldenTrace against
// testdata/trace_golden.jsonl. The golden file pins the event schema:
// names, field sets, shard labelling (-1 DS, -2 rejected), epoch
// numbering and event ordering. Regenerate with
//
//	go test ./internal/shard -run GoldenTrace -update-golden
func TestGoldenTraceSchema(t *testing.T) {
	got := goldenTrace(t)
	golden := filepath.Join("testdata", "trace_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace schema drifted from %s.\nGot:\n%s\nWant:\n%s\n(run with -update-golden if the change is intentional)",
			golden, got, want)
	}
}

// TestJournalReproducesEpochStats is the tentpole acceptance check: a
// 4-shard run's epoch_finalized journal event must carry exactly the
// numbers RunEpoch returned, and the StageCollector's per-stage
// breakdown must fit in the measured epoch time.
func TestJournalReproducesEpochStats(t *testing.T) {
	var buf bytes.Buffer
	journal := obs.NewJournal(&buf)
	col := obs.NewStageCollector()
	net := shard.NewNetwork(
		shard.WithShards(4),
		shard.WithRecorder(journal),
		shard.WithRecorder(col),
	)
	users := make([]chain.Address, 8)
	for i := range users {
		users[i] = chain.AddrFromUint(uint64(i + 1))
		net.CreateUser(users[i], 1_000_000)
	}
	for i := 0; i < 32; i++ {
		net.Submit(payTx(users[i%8], users[(i+3)%8], uint64(i/8+1), 5))
	}
	stats, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}

	var fin map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad journal line: %v\n%s", err, line)
		}
		if m["event"] == "epoch_finalized" {
			fin = m
		}
	}
	if fin == nil {
		t.Fatal("no epoch_finalized event in the journal")
	}
	wantCounts := map[string]int{
		"committed":     stats.Committed,
		"failed":        stats.Failed,
		"rejected":      stats.Rejected,
		"deferred":      stats.Deferred,
		"ds_committed":  stats.DSCount,
		"delta_entries": stats.DeltaEntries,
	}
	for k, want := range wantCounts {
		if got := int(fin[k].(float64)); got != want {
			t.Errorf("epoch_finalized %s = %d, stats say %d", k, got, want)
		}
	}
	if got := time.Duration(int64(fin["measured_ns"].(float64))); got != stats.MeasuredTime {
		t.Errorf("epoch_finalized measured_ns = %v, stats say %v", got, stats.MeasuredTime)
	}

	sum := col.Last()
	if sum.Epoch != stats.Epoch || sum.Committed != stats.Committed {
		t.Errorf("collector summary %+v disagrees with stats %+v", sum, stats)
	}
	// RunEpoch runs the shards one after another inside the measured
	// span, so every stage fits in it.
	if stages := sum.Dispatch + sum.ExecSum + sum.Merge + sum.DSExec; stages > sum.Measured {
		t.Errorf("stage breakdown %v exceeds the measured epoch %v", stages, sum.Measured)
	}
	if sum.Measured != stats.MeasuredTime {
		t.Errorf("collector measured %v != stats measured %v", sum.Measured, stats.MeasuredTime)
	}
}

// TestTraceShardLabels pins the shard labelling convention end to end:
// transfers carry their executing shard id, DS work is -1, dispatcher
// rejections are -2 — in both receipts and trace events.
func TestTraceShardLabels(t *testing.T) {
	recs := receiptBook{}
	var buf bytes.Buffer
	journal := obs.NewJournal(&buf)
	net := shard.NewNetwork(shard.WithShards(2), shard.WithRecorder(journal))
	a := chain.AddrFromUint(1)
	net.CreateUser(a, 1_000_000)
	okID := net.Submit(payTx(a, chain.AddrFromUint(2), 1, 10))
	badID := net.Submit(payTx(chain.AddrFromUint(42), a, 1, 10))
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}
	shards := map[uint64]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if m["event"] == "tx_dispatched" {
			shards[uint64(m["tx"].(float64))] = int(m["shard"].(float64))
		}
	}
	if s, ok := shards[okID]; !ok || s < 0 {
		t.Errorf("committed transfer labelled shard %d (%v), want >= 0", s, ok)
	}
	if s := shards[badID]; s != -2 {
		t.Errorf("rejected tx labelled shard %d, want -2", s)
	}
	rec := recs[badID]
	if rec == nil || rec.Shard != -2 {
		t.Errorf("rejected receipt = %+v, want Shard -2", rec)
	}
}
