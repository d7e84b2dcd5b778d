// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts: Fig. 12 (pipeline timings), Fig. 13 (GE
// signature statistics), the Sec. 5.2 contract table, Fig. 14
// (throughput), the Sec. 5.2.2 overhead measurements and the
// Sec. 5.2.3 strategy ablation. The cmd/ binaries and bench_test.go
// are thin wrappers over this package.
//
// Fig. 14 and the strategy ablation report throughput in *modelled*
// time, and this package is the only place that time exists: the
// epoch pipeline (internal/shard) measures, and MeasureThroughput
// drives its three stage calls itself, applies a fault plan to them and
// charges each epoch the PBFT model of consensus.go.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// ThroughputConfig parameterises a Fig. 14 run.
type ThroughputConfig struct {
	Epochs      int
	TxsPerEpoch int
	// NodesPerShard sizes the modelled PBFT committees: each shard's,
	// and the DS committee's at twice this size.
	NodesPerShard int
	// ShardGasLimit/DSGasLimit are per-epoch capacities; the defaults
	// are scaled down from mainnet so the offered load saturates them.
	ShardGasLimit uint64
	DSGasLimit    uint64
	// Faults is consulted for every shard of every measured epoch (not
	// the setup epochs workload.Provision settles); nil or empty
	// injects nothing. A crashed shard is not executed, a dropped or
	// corrupt MicroBlock is executed and then withheld from
	// FinalizeEpoch, and a straggler's execution time is scaled in the
	// model only. Each epoch that loses a block is charged one view
	// change.
	Faults *fault.Plan
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
	// WallTime is the total modelled duration; Consensus is the
	// modelled consensus charged to each measured epoch, its largest
	// part.
	WallTime  time.Duration
	Consensus []time.Duration
}

// MeasureThroughput runs one workload in one configuration and
// reports the achieved TPS.
func MeasureThroughput(w *workload.Workload, numShards int, sharded bool, cfg ThroughputConfig) (*ThroughputResult, error) {
	stages := obs.NewStageCollector()
	opts := append([]shard.Option{
		shard.WithShards(numShards),
		shard.WithGasLimits(cfg.ShardGasLimit, cfg.DSGasLimit),
		shard.WithRecorder(stages),
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
		ep, err := runEpoch(env.Net, stages, cfg.Faults, cfg.NodesPerShard)
		if err != nil {
			return nil, err
		}
		res.Committed += ep.stats.Committed
		res.Failed += ep.stats.Failed
		dsCommitted += ep.stats.DSCount
		total += ep.wall
		res.Consensus = append(res.Consensus, ep.consensus)
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

// modelledEpoch is one epoch as the harness charges it: wall is
// Dispatch + ExecMax' + Merge + DSExec + consensus, where ExecMax' is
// the slowest executed shard after straggle scaling, and consensus is
// one shard round over the largest arrived MicroBlock, one DS round
// over every arrived shard receipt and the DS queue, and one view
// change if any block was lost.
type modelledEpoch struct {
	stats           *shard.EpochStats
	consensus, wall time.Duration
}

// runEpoch drives one epoch of net through BeginEpoch, ExecuteShard
// and FinalizeEpoch, applying plan at the run's epoch, and charges it
// modelled time with committees of nodesPerShard nodes (twice that for
// the DS committee). stages must be attached to net: the dispatch,
// merge and DS-execution terms are its measured ones.
func runEpoch(net *shard.Network, stages *obs.StageCollector, plan *fault.Plan, nodesPerShard int) (*modelledEpoch, error) {
	run := net.BeginEpoch()
	queues := run.Queues()
	blocks := make([]*shard.MicroBlock, len(queues))
	perShard := make([]int, len(queues))
	var execMax time.Duration
	lost := false
	for s, q := range queues {
		d := plan.At(run.Epoch(), s)
		if d.Kind == fault.CrashMidEpoch {
			lost = true
			continue
		}
		mb, err := net.ExecuteShard(s, q)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		exec := mb.ExecTime
		if d.Kind == fault.Straggle {
			exec = time.Duration(float64(exec) * max(d.Factor, 1))
		}
		execMax = max(execMax, exec)
		if d.Kind.Lost() {
			lost = true
			continue
		}
		blocks[s] = mb
		perShard[s] = len(mb.Receipts)
	}
	dsTxs := len(run.DSQueue())
	stats, _, err := net.FinalizeEpoch(run, blocks)
	if err != nil {
		return nil, err
	}
	shardModel := defaultModel(nodesPerShard)
	shardRound, dsRound := epochConsensusParts(shardModel, defaultModel(2*nodesPerShard), perShard, dsTxs)
	ep := &modelledEpoch{stats: stats, consensus: shardRound + dsRound}
	if lost {
		ep.consensus += shardModel.viewChangeTime()
	}
	sum := stages.Last()
	ep.wall = sum.Dispatch + execMax + sum.Merge + sum.DSExec + ep.consensus
	return ep, nil
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
