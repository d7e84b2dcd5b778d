package bench_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"cosplit/internal/bench"
	"cosplit/internal/workload"
)

func TestMeasurePipeline(t *testing.T) {
	row, err := bench.MeasurePipeline("FungibleToken", 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Parse <= 0 || row.Typecheck <= 0 || row.Analysis <= 0 {
		t.Errorf("zero-valued stage timing: %+v", row)
	}
	if row.Total() != row.Parse+row.Typecheck+row.Analysis {
		t.Error("Total() inconsistent")
	}
}

func TestRunGETable52(t *testing.T) {
	stats, err := bench.RunGE([]string{"Crowdfunding", "NonfungibleToken"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d rows", len(stats))
	}
	for _, s := range stats {
		if s.LOC == 0 || s.NumTransitions == 0 {
			t.Errorf("degenerate row: %+v", s)
		}
	}
	var sb strings.Builder
	bench.PrintTable52(&sb, stats)
	if !strings.Contains(sb.String(), "Crowdfunding") {
		t.Error("table missing contract")
	}
}

func TestTransitionHistogram(t *testing.T) {
	hist, err := bench.TransitionHistogram()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range hist {
		total += n
	}
	if total < 20 {
		t.Errorf("histogram covers %d contracts, want the full corpus", total)
	}
}

func TestMeasureThroughputSmoke(t *testing.T) {
	w, err := workload.ByName("FT transfer")
	if err != nil {
		t.Fatal(err)
	}
	w.Users = 30
	cfg := bench.ThroughputConfig{
		Epochs: 2, TxsPerEpoch: 200, NodesPerShard: 5,
		ShardGasLimit: 1 << 30, DSGasLimit: 1 << 30,
	}
	r, err := bench.MeasureThroughput(w, 2, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 || r.TPS <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

// TestFig14Pin pins a small Fig. 14 run of FT transfer — 2 epochs of
// 500 transactions at 40,000 gas per shard and for the DS committee,
// 5-node committees, no fault plan — to the figures recorded before the
// PBFT model moved from the epoch pipeline into this harness:
// committed, failed, DS share and the modelled consensus of each
// measured epoch.
func TestFig14Pin(t *testing.T) {
	cfg := bench.ThroughputConfig{
		Epochs: 2, TxsPerEpoch: 500, NodesPerShard: 5,
		ShardGasLimit: 40_000, DSGasLimit: 40_000,
	}
	rows, err := bench.RunFig14(cfg, []string{"FT transfer"})
	if err != nil {
		t.Fatal(err)
	}
	const us = time.Microsecond
	want := []struct {
		name      string
		committed int
		dsShare   float64
		consensus []time.Duration
	}{
		{"baseline-3sh", 1000, 0.619, []time.Duration{644_250 * us, 644_800 * us}},
		{"cosplit-3sh", 1000, 0, []time.Duration{644_250 * us, 644_800 * us}},
		{"cosplit-4sh", 1000, 0, []time.Duration{644_450 * us, 642_100 * us}},
		{"cosplit-5sh", 1000, 0, []time.Duration{640_800 * us, 641_000 * us}},
	}
	got := append([]*bench.ThroughputResult{rows[0].Baseline}, rows[0].CoSplit...)
	for i, w := range want {
		r := got[i]
		if r.Committed != w.committed || r.Failed != 0 || math.Abs(r.DSShare-w.dsShare) > 5e-4 {
			t.Errorf("%s: committed %d, failed %d, DS share %.4f; want %d, 0, %.3f",
				w.name, r.Committed, r.Failed, r.DSShare, w.committed, w.dsShare)
		}
		if len(r.Consensus) != len(w.consensus) {
			t.Errorf("%s: %d measured epochs charged, want %d", w.name, len(r.Consensus), len(w.consensus))
			continue
		}
		for e := range w.consensus {
			if r.Consensus[e] != w.consensus[e] {
				t.Errorf("%s epoch %d: consensus %v, want %v", w.name, e, r.Consensus[e], w.consensus[e])
			}
		}
	}
}

func TestMeasureOverheadsSmoke(t *testing.T) {
	r, err := bench.MeasureOverheads(200)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoSplitDispatch <= r.BaselineDispatch {
		t.Logf("note: CoSplit dispatch (%v) not slower than baseline (%v) at this sample size",
			r.CoSplitDispatch, r.BaselineDispatch)
	}
	if r.ExecuteTime <= r.MergeTime {
		t.Errorf("executing %d txs (%v) should dominate merging their delta (%v)",
			r.ExecutedTxs, r.ExecuteTime, r.MergeTime)
	}
	var sb strings.Builder
	bench.PrintOverheads(&sb, r)
	if !strings.Contains(sb.String(), "dispatch latency") {
		t.Error("overheads rendering broken")
	}
}
