package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"runtime"
	"sort"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/pager"
	"cosplit/internal/shard"
)

// StateBenchConfig parameterises the paged-state benchmark that
// produces BENCH_state.json: a grid of account populations times page
// cache budgets, each cell driving the same deterministic transfer
// load and reporting committed throughput alongside the pager's fault
// behaviour. Budget 0 rows run fully resident (no pager) and are the
// regression baseline scripts/benchdiff.sh compares paged rows
// against.
type StateBenchConfig struct {
	Accounts    []int   `json:"accounts"`
	Budgets     []int64 `json:"budgets"`
	Epochs      int     `json:"epochs"`
	TxsPerEpoch int     `json:"txs_per_epoch"`
	// PageAccounts is the target number of accounts per page; each
	// paged cell sizes its page table as accounts/PageAccounts (rounded
	// up to a power of two by the pager).
	PageAccounts int `json:"page_accounts"`
	NumShards    int `json:"num_shards"`
}

// DefaultStateBenchConfig is the configuration the committed
// BENCH_state.json is generated with: populations around and past the
// point where the smallest budget forces steady-state eviction.
func DefaultStateBenchConfig() StateBenchConfig {
	return StateBenchConfig{
		Accounts:     []int{50_000, 200_000},
		Budgets:      []int64{0, 4 << 20, pager.DefaultBudget},
		Epochs:       5,
		TxsPerEpoch:  2000,
		PageAccounts: 512,
		NumShards:    4,
	}
}

// StateBenchRow is one (accounts, budget) cell.
type StateBenchRow struct {
	Accounts int   `json:"accounts"`
	Budget   int64 `json:"budget"`
	// Paged distinguishes a pager-backed run from the fully resident
	// baseline (Budget 0).
	Paged     bool `json:"paged"`
	Committed int  `json:"committed"`
	Failed    int  `json:"failed"`
	// ProvisionMS is the host time to create the account population
	// (sorted address order — sequential page fill); WallMS the host
	// time inside RunEpoch across all measured epochs. TPS is committed
	// transactions per host second: paging cost is real I/O, so the
	// modelled epoch clock would miss exactly the effect under test.
	ProvisionMS float64 `json:"provision_ms"`
	WallMS      float64 `json:"wall_ms"`
	TPS         float64 `json:"tps"`
	// Fault behaviour over the measured epochs (provisioning faults are
	// excluded by snapshotting counters after setup).
	Hits           int64   `json:"hits"`
	Faults         int64   `json:"faults"`
	FaultsPerEpoch float64 `json:"faults_per_epoch"`
	Evictions      int64   `json:"evictions"`
	Writebacks     int64   `json:"writebacks"`
	// P99FaultMicros is the 99th-percentile page fault latency in
	// microseconds, read from the pager.fault_time histogram (bucket
	// upper bound, so an overestimate by at most one 1-2-5 step).
	P99FaultMicros float64 `json:"p99_fault_micros"`
	ResidentBytes  int64   `json:"resident_bytes"`
	HeapMB         uint64  `json:"heap_mb"`
}

// StateBenchReport is the serialised form of BENCH_state.json.
type StateBenchReport struct {
	Schema      string           `json:"schema"`
	Config      StateBenchConfig `json:"config"`
	HostCPUs    int              `json:"host_cpus"`
	Rows        []StateBenchRow  `json:"rows"`
	GeneratedBy string           `json:"generated_by"`
}

// measureStateCell provisions one population at one budget and drives
// the measured epochs. The population is created in sorted address
// order: sha256-derived addresses are uniform, so sorted insertion
// fills one page at a time instead of faulting the whole page table
// per batch — the difference between O(accounts) and O(accounts ×
// pages/budget) provisioning I/O at small budgets.
func measureStateCell(accounts int, budget int64, cfg StateBenchConfig) (*StateBenchRow, error) {
	reg := obs.NewRegistry()
	opts := []shard.Option{
		shard.WithShards(cfg.NumShards),
		shard.WithConsensusModel(false),
		shard.WithRegistry(reg),
	}
	row := &StateBenchRow{Accounts: accounts, Budget: budget, Paged: budget > 0}
	var p *pager.Pager
	if budget > 0 {
		dir, err := os.MkdirTemp("", "statebench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		pages := accounts / cfg.PageAccounts
		if pages < 1 {
			pages = 1
		}
		p, err = pager.Open(dir,
			pager.WithBudget(budget),
			pager.WithPageCount(pages),
			pager.WithRegistry(reg))
		if err != nil {
			return nil, err
		}
		opts = append(opts, shard.WithStateBackends(p.Backend(), p))
	}
	n := shard.NewNetwork(opts...)

	addrs := make([]chain.Address, accounts)
	for i := range addrs {
		addrs[i] = chain.AddrFromUint(uint64(1000 + i))
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	start := time.Now()
	for _, a := range addrs {
		n.CreateUser(a, 1<<40)
	}
	row.ProvisionMS = ms(time.Since(start))
	runtime.GC()

	// Counter baseline after provisioning: the measured rows report the
	// steady-state fault rate of the transfer load, not setup cost.
	before := reg.Snapshot()
	var wall time.Duration
	for k := uint64(1); k <= uint64(cfg.Epochs); k++ {
		for i := uint64(0); i < uint64(cfg.TxsPerEpoch); i++ {
			from := chain.AddrFromUint(1000 + (i*2099)%uint64(accounts))
			to := chain.AddrFromUint(1000 + (i*2099+1)%uint64(accounts))
			n.Submit(&chain.Tx{
				Kind: chain.TxTransfer, From: from, To: to, Nonce: k,
				Amount: big.NewInt(3), GasLimit: 1, GasPrice: 1,
			})
		}
		t0 := time.Now()
		stats, err := n.RunEpoch()
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", k, err)
		}
		wall += time.Since(t0)
		row.Committed += stats.Committed
		row.Failed += stats.Failed
	}
	row.WallMS = ms(wall)
	if wall > 0 {
		row.TPS = float64(row.Committed) / wall.Seconds()
	}

	after := reg.Snapshot()
	delta := func(name string) int64 {
		return after.Counters[name] - before.Counters[name]
	}
	row.Hits = delta("pager.hits")
	row.Faults = delta("pager.faults")
	row.Evictions = delta("pager.evictions")
	row.Writebacks = delta("pager.writebacks")
	if cfg.Epochs > 0 {
		row.FaultsPerEpoch = float64(row.Faults) / float64(cfg.Epochs)
	}
	row.P99FaultMicros = histQuantileMicros(after.Histograms["pager.fault_time"], 0.99)
	if p != nil {
		row.ResidentBytes = p.ResidentBytes()
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	row.HeapMB = mem.HeapAlloc >> 20
	runtime.KeepAlive(n)
	return row, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histQuantileMicros returns the q-quantile of a time histogram in
// microseconds, as the upper bound of the bucket the quantile lands
// in. The overflow bucket (Le = -1) reports the largest finite bound;
// an empty histogram reports 0.
func histQuantileMicros(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	var cum, lastFinite int64
	for _, b := range h.Buckets {
		cum += b.Count
		if b.Le >= 0 {
			lastFinite = b.Le
		}
		if cum >= target {
			le := b.Le
			if le < 0 {
				le = lastFinite
			}
			return float64(le) / float64(time.Microsecond)
		}
	}
	return float64(lastFinite) / float64(time.Microsecond)
}

// RunStateBench runs the full accounts × budgets grid.
func RunStateBench(cfg StateBenchConfig) (*StateBenchReport, error) {
	rep := &StateBenchReport{
		Schema:      "cosplit-state-bench/v1",
		Config:      cfg,
		HostCPUs:    runtime.NumCPU(),
		GeneratedBy: "go run ./cmd/shardsim -state-bench -bench-out BENCH_state.json",
	}
	for _, accounts := range cfg.Accounts {
		for _, budget := range cfg.Budgets {
			row, err := measureStateCell(accounts, budget, cfg)
			if err != nil {
				return nil, fmt.Errorf("state bench %d accounts budget %d: %w", accounts, budget, err)
			}
			rep.Rows = append(rep.Rows, *row)
		}
	}
	return rep, nil
}

// WriteJSON serialises the report.
func (r *StateBenchReport) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintStateBench renders the report as a table.
func PrintStateBench(out io.Writer, r *StateBenchReport) {
	fmt.Fprintf(out, "paged-state benchmark: epochs=%d txs/epoch=%d shards=%d page=%d accounts\n",
		r.Config.Epochs, r.Config.TxsPerEpoch, r.Config.NumShards, r.Config.PageAccounts)
	fmt.Fprintf(out, "%10s %10s %10s %10s %12s %10s %14s %8s\n",
		"accounts", "budget-MB", "committed", "tps", "faults/ep", "evictions", "p99-fault-us", "heap-MB")
	for _, row := range r.Rows {
		budget := "resident"
		if row.Paged {
			budget = fmt.Sprintf("%d", row.Budget>>20)
		}
		fmt.Fprintf(out, "%10d %10s %10d %10.0f %12.1f %10d %14.0f %8d\n",
			row.Accounts, budget, row.Committed, row.TPS,
			row.FaultsPerEpoch, row.Evictions, row.P99FaultMicros, row.HeapMB)
	}
}
