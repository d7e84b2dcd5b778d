package bench

import (
	"fmt"
	"io"
	"math/big"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// OverheadResult reproduces the Sec. 5.2.2 measurements.
type OverheadResult struct {
	// Dispatch latency per transaction.
	BaselineDispatch time.Duration
	CoSplitDispatch  time.Duration
	// State-delta merge cost per changed field.
	OverwriteMergePerField time.Duration
	IntMergePerField       time.Duration
	// Execute-vs-merge: how long executing N transfers takes vs
	// merging the resulting delta (the paper's 50s-vs-0.5s point).
	ExecuteTime time.Duration
	MergeTime   time.Duration
	ExecutedTxs int
}

// MeasureOverheads measures dispatch and merge costs. Any extra
// options (e.g. shard.WithRegistry) are applied to the networks it
// provisions.
func MeasureOverheads(txs int, netOpts ...shard.Option) (*OverheadResult, error) {
	out := &OverheadResult{}

	// --- Dispatch latency, baseline vs CoSplit signature. ---
	for _, sharded := range []bool{false, true} {
		w := workload.FTTransfer()
		w.Setup = nil // dispatch measurement needs no token balances
		env, err := workload.Provision(w, sharded,
			append([]shard.Option{shard.WithShards(3)}, netOpts...)...)
		if err != nil {
			return nil, err
		}
		batch := make([]*chain.Tx, txs)
		for i := range batch {
			tx := w.Next(env)
			tx.ID = uint64(i + 1)
			batch[i] = tx
		}
		t0 := time.Now()
		for _, tx := range batch {
			env.Net.Disp.Dispatch(tx)
		}
		per := time.Since(t0) / time.Duration(txs)
		if sharded {
			out.CoSplitDispatch = per
		} else {
			out.BaselineDispatch = per
		}
	}

	// --- Merge cost per changed field. ---
	fieldTypes := map[string]ast.Type{
		"balances": ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128},
	}
	mkState := func(entries int) *eval.MemState {
		st := eval.NewMemState(fieldTypes)
		m := value.NewMap(ast.TyByStr20, ast.TyUint128)
		for i := 0; i < entries; i++ {
			m.Set(chain.AddrFromUint(uint64(i)).Value(), value.Uint128(1000))
		}
		st.Fields["balances"] = m
		return st
	}
	mkDelta := func(base *eval.MemState, entries int, join signature.Join) (*chain.StateDelta, error) {
		ov := chain.NewOverlay(base, fieldTypes)
		for i := 0; i < entries; i++ {
			k := chain.AddrFromUint(uint64(i)).Value()
			if err := eval.SetAt(ov, "balances", []value.Value{k}, value.Uint128(uint64(1000+i))); err != nil {
				return nil, err
			}
		}
		return ov.ExtractDelta(chain.Address{}, 0, map[string]signature.Join{"balances": join})
	}
	const entries = 5000
	for _, join := range []signature.Join{signature.OwnOverwrite, signature.IntMerge} {
		base := mkState(entries)
		d, err := mkDelta(base, entries, join)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := chain.MergeDeltas(base, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
			return nil, err
		}
		per := time.Since(t0) / entries
		if join == signature.IntMerge {
			out.IntMergePerField = per
		} else {
			out.OverwriteMergePerField = per
		}
	}

	// --- Execute vs merge (applying a delta is much cheaper than
	// executing the transactions that produced it). ---
	w := workload.FTTransfer()
	env, err := workload.Provision(w, true,
		append([]shard.Option{
			shard.WithShards(1),
			shard.WithGasLimits(1<<60, 1<<60),
			shard.WithSplitGasAccounting(false),
		}, netOpts...)...)
	if err != nil {
		return nil, err
	}
	c := env.Net.Contracts.Get(env.Contract)
	ov := chain.NewOverlay(c.Snapshot(), c.Checked.FieldTypes)
	t0 := time.Now()
	executed := 0
	for i := 0; i < txs; i++ {
		tx := w.Next(env)
		ctx := &eval.Context{
			Sender:      tx.From.Value(),
			Origin:      tx.From.Value(),
			Amount:      value.Uint128(0),
			BlockNumber: big.NewInt(1),
			State:       ov,
		}
		if _, err := c.Interp.Run(ctx, tx.Transition, tx.Args); err == nil {
			executed++
		}
	}
	out.ExecuteTime = time.Since(t0)
	out.ExecutedTxs = executed
	d, err := ov.ExtractDelta(env.Contract, 0, c.Sig.Joins)
	if err != nil {
		return nil, err
	}
	target := c.Snapshot().Copy()
	t1 := time.Now()
	if err := chain.MergeDeltas(target, []*chain.StateDelta{d}, new(chain.Undo)); err != nil {
		return nil, err
	}
	out.MergeTime = time.Since(t1)
	return out, nil
}

// PrintOverheads renders the Sec. 5.2.2 numbers.
func PrintOverheads(out io.Writer, r *OverheadResult) {
	fmt.Fprintf(out, "dispatch latency:   baseline %v/tx, CoSplit %v/tx (%.1fx)\n",
		r.BaselineDispatch, r.CoSplitDispatch,
		float64(r.CoSplitDispatch)/float64(max64(1, int64(r.BaselineDispatch))))
	fmt.Fprintf(out, "delta merge:        overwrite %v/field, IntMerge %v/field\n",
		r.OverwriteMergePerField, r.IntMergePerField)
	ratio := float64(r.ExecuteTime) / float64(max64(1, int64(r.MergeTime)))
	fmt.Fprintf(out, "execute vs merge:   %d txs executed in %v; their delta merged in %v (%.0fx faster)\n",
		r.ExecutedTxs, r.ExecuteTime, r.MergeTime, ratio)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// StrategyResult is one row of the Sec. 5.2.3 ownership-vs-
// commutativity comparison, extended with the DESIGN.md pseudo-field
// ablation (whole-map ownership).
type StrategyResult struct {
	Workload      string
	CoarseTPS     float64 // whole-field ownership (no pseudo-fields)
	OwnershipTPS  float64 // strategy 1 only (fine-grained ownership)
	FullTPS       float64 // ownership + commutativity
	BaselineTPS   float64
	Commutativity float64 // Full/Ownership
}

// RunStrategies compares ownership-only sharding against the full
// analysis on a fungible (FT transfer) and a non-fungible (NFT
// transfer) workload, reproducing the Sec. 5.2.3 observation.
func RunStrategies(cfg ThroughputConfig) ([]*StrategyResult, error) {
	var out []*StrategyResult
	for _, name := range []string{"FT transfer", "NFT transfer", "CF donate"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		full, err := MeasureThroughput(w, 5, true, cfg)
		if err != nil {
			return nil, err
		}
		w2, _ := workload.ByName(name)
		w2.Query.DisableCommutativity = true
		owner, err := MeasureThroughput(w2, 5, true, cfg)
		if err != nil {
			return nil, err
		}
		w3, _ := workload.ByName(name)
		base, err := MeasureThroughput(w3, 5, false, cfg)
		if err != nil {
			return nil, err
		}
		w4, _ := workload.ByName(name)
		w4.Query.DisableCommutativity = true
		w4.Query.CoarseOwnership = true
		coarse, err := MeasureThroughput(w4, 5, true, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, &StrategyResult{
			Workload:      name,
			CoarseTPS:     coarse.TPS,
			OwnershipTPS:  owner.TPS,
			FullTPS:       full.TPS,
			BaselineTPS:   base.TPS,
			Commutativity: full.TPS / maxf(1, owner.TPS),
		})
	}
	return out, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PrintStrategies renders the Sec. 5.2.3 comparison plus the
// pseudo-field ablation.
func PrintStrategies(out io.Writer, rows []*StrategyResult) {
	fmt.Fprintf(out, "%-16s %12s %12s %14s %12s %14s\n",
		"workload", "baseline", "coarse-own", "ownership-only", "full", "commut. gain")
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %12.0f %12.0f %14.0f %12.0f %13.1fx\n",
			r.Workload, r.BaselineTPS, r.CoarseTPS, r.OwnershipTPS, r.FullTPS, r.Commutativity)
	}
}
