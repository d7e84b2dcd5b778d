// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts: Fig. 12 (pipeline timings), Fig. 13 (GE
// signature statistics), the Sec. 5.2 contract table, Fig. 14
// (throughput), the Sec. 5.2.2 overhead measurements and the
// Sec. 5.2.3 strategy ablation. The cmd/ binaries and bench_test.go
// are thin wrappers over this package.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// ThroughputConfig parameterises a Fig. 14 run.
type ThroughputConfig struct {
	Epochs        int
	TxsPerEpoch   int
	NodesPerShard int
	// ShardGasLimit/DSGasLimit are per-epoch capacities; the defaults
	// are scaled down from mainnet so the offered load saturates them.
	ShardGasLimit uint64
	DSGasLimit    uint64
	// NetOptions are appended to every network the run builds (e.g.
	// shard.WithRegistry to aggregate metrics across configurations).
	NetOptions []shard.Option
}

// ThroughputResult is one bar of Fig. 14.
type ThroughputResult struct {
	Workload  string
	Sharded   bool
	NumShards int
	// TPS is committed transactions per modelled second.
	TPS float64
	// Committed/Failed/DSShare summarise the run.
	Committed int
	Failed    int
	// DSShare is the fraction of committed transactions the DS
	// committee processed.
	DSShare float64
	// WallTime is the total modelled duration.
	WallTime time.Duration
}

// MeasureThroughput runs one workload in one configuration and
// reports the achieved TPS.
func MeasureThroughput(w *workload.Workload, numShards int, sharded bool, cfg ThroughputConfig) (*ThroughputResult, error) {
	opts := append([]shard.Option{
		shard.WithShards(numShards),
		shard.WithNodesPerShard(cfg.NodesPerShard),
		shard.WithGasLimits(cfg.ShardGasLimit, cfg.DSGasLimit),
	}, cfg.NetOptions...)
	env, err := workload.Provision(w, sharded, opts...)
	if err != nil {
		return nil, err
	}
	// Level the playing field across successive runs in one process.
	runtime.GC()
	res := &ThroughputResult{Workload: w.Name, Sharded: sharded, NumShards: numShards}
	var total time.Duration
	dsCommitted := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		env.TopUp(w, cfg.TxsPerEpoch)
		stats, err := env.Net.RunEpoch()
		if err != nil {
			return nil, err
		}
		res.Committed += stats.Committed
		res.Failed += stats.Failed
		dsCommitted += stats.DSCount
		total += stats.WallTime
	}
	res.WallTime = total
	if total > 0 {
		res.TPS = float64(res.Committed) / total.Seconds()
	}
	if res.Committed > 0 {
		res.DSShare = float64(dsCommitted) / float64(res.Committed)
	}
	return res, nil
}

// Fig14Row is the set of bars for one workload.
type Fig14Row struct {
	Workload string
	Baseline *ThroughputResult   // baseline, 3 shards
	CoSplit  []*ThroughputResult // CoSplit, 3/4/5 shards
}

// RunFig14 regenerates Fig. 14: every workload under baseline (3
// shards) and CoSplit (3, 4, 5 shards).
func RunFig14(cfg ThroughputConfig, names []string) ([]*Fig14Row, error) {
	var rows []*Fig14Row
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		row := &Fig14Row{Workload: name}
		row.Baseline, err = MeasureThroughput(w, 3, false, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", name, err)
		}
		for _, n := range []int{3, 4, 5} {
			r, err := MeasureThroughput(w, n, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s cosplit %d: %w", name, n, err)
			}
			row.CoSplit = append(row.CoSplit, r)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig14 renders the Fig. 14 series as a table.
func PrintFig14(out io.Writer, rows []*Fig14Row) {
	fmt.Fprintf(out, "%-20s %12s %12s %12s %12s %8s\n",
		"workload", "base-3sh", "cosplit-3sh", "cosplit-4sh", "cosplit-5sh", "DS%-5sh")
	for _, row := range rows {
		fmt.Fprintf(out, "%-20s %12.0f %12.0f %12.0f %12.0f %7.0f%%\n",
			row.Workload,
			row.Baseline.TPS,
			row.CoSplit[0].TPS,
			row.CoSplit[1].TPS,
			row.CoSplit[2].TPS,
			row.CoSplit[2].DSShare*100)
	}
}
