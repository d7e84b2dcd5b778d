package shard

import (
	"cosplit/internal/chain"
	"cosplit/internal/fault"
	"cosplit/internal/obs"
)

// Config is the network's resolved configuration, readable through
// Network.Config. Networks are constructed with NewNetwork and
// functional options (WithShards, WithGasLimits, WithRecorder, ...);
// code outside this package never builds Config values.
type Config struct {
	NumShards     int
	NodesPerShard int
	// ShardGasLimit caps the gas a shard commits per epoch; DSGasLimit
	// caps the DS committee. These mirror Zilliqa's per-MicroBlock and
	// per-FinalBlock gas limits.
	ShardGasLimit uint64
	DSGasLimit    uint64
	// SplitGasAccounting enables the Sec. 4.2.2 per-shard gas budgets.
	SplitGasAccounting bool
	// ModelConsensus adds the PBFT timing model to epoch wall time.
	ModelConsensus bool
	// OverflowGuard enables the Sec. 6 conservative integer-overflow
	// check: a shard rejects a transaction whose cumulative IntMerge
	// delta on any component exceeds ⌊(MAX_INT − v₀)/N⌋ (or the
	// symmetric bound below zero), guaranteeing the joined deltas of N
	// shards cannot overflow at merge time.
	OverflowGuard bool
	// CompiledExecution serves transition calls from the contract's
	// closure-chain compiled program (built once at deployment) instead
	// of the AST-walking interpreter. Results are bit-identical — gas,
	// receipts, deltas, state roots; transitions the compiler cannot
	// lower transparently fall back to the interpreter per call. On by
	// default.
	CompiledExecution bool
	// FaultEscalation is the unavailability-backoff bound: after this
	// many consecutive epochs of losing a shard's MicroBlock — to an
	// injected crash, drop or corruption, or in the node runtime to a
	// shard node that does not answer within the collect timeout — the
	// dispatcher stops routing to the shard and its traffic escalates to
	// DS execution until the shard seals a healthy block again.
	FaultEscalation int
}

// DefaultConfig mirrors the paper's experimental setup: 5 nodes per
// shard, mainnet-like gas limits. NewNetwork(WithShards(n)) applies
// the same defaults.
func DefaultConfig(numShards int) Config {
	return Config{
		NumShards:          numShards,
		NodesPerShard:      5,
		ShardGasLimit:      2_000_000,
		DSGasLimit:         2_000_000,
		SplitGasAccounting: true,
		ModelConsensus:     true,
		CompiledExecution:  true,
		FaultEscalation:    3,
	}
}

// settings is the resolved form of a NewNetwork option list.
type settings struct {
	cfg       Config
	recs      []obs.Recorder
	reg       *obs.Registry
	faults    *fault.Plan
	accounts  chain.AccountBackend
	contPager chain.ContractPager
}

// Option configures a Network at construction time. The zero option
// list reproduces the paper's experimental setup on a single shard:
// 5 nodes per shard, 2M gas per MicroBlock and FinalBlock, split gas
// accounting and the PBFT consensus model on, compiled execution,
// overflow guard off, no tracing.
type Option func(*settings)

// WithShards sets the number of execution shards (the DS committee is
// separate and always present).
func WithShards(n int) Option {
	return func(s *settings) { s.cfg.NumShards = n }
}

// WithNodesPerShard sets the committee size per shard; the DS
// committee is modelled at twice this size.
func WithNodesPerShard(n int) Option {
	return func(s *settings) { s.cfg.NodesPerShard = n }
}

// WithGasLimits sets the per-epoch gas caps for each shard's
// MicroBlock and for the DS committee's FinalBlock.
func WithGasLimits(shardGas, dsGas uint64) Option {
	return func(s *settings) {
		s.cfg.ShardGasLimit = shardGas
		s.cfg.DSGasLimit = dsGas
	}
}

// WithSplitGasAccounting toggles the Sec. 4.2.2 per-shard gas budgets.
func WithSplitGasAccounting(on bool) Option {
	return func(s *settings) { s.cfg.SplitGasAccounting = on }
}

// WithConsensusModel toggles the analytic PBFT timing model's
// contribution to the modelled epoch wall time.
func WithConsensusModel(on bool) Option {
	return func(s *settings) { s.cfg.ModelConsensus = on }
}

// WithCompiledExecution toggles the closure-chain compiled execution
// engine (see Config.CompiledExecution); passing false forces every
// transition call through the AST-walking interpreter. No CLI sets it:
// it is how the differential and golden-root suites select the
// reference engine.
func WithCompiledExecution(on bool) Option {
	return func(s *settings) { s.cfg.CompiledExecution = on }
}

// WithOverflowGuard toggles the Sec. 6 conservative integer-overflow
// check in shards.
func WithOverflowGuard(on bool) Option {
	return func(s *settings) { s.cfg.OverflowGuard = on }
}

// WithRecorder attaches an event recorder (e.g. an *obs.Journal or
// *obs.StageCollector) to the network's epoch pipeline. Repeated use
// accumulates recorders; they are fanned out through obs.Multi. The
// epoch pipeline calls it from one goroutine; Submit emits no events.
func WithRecorder(rec obs.Recorder) Option {
	return func(s *settings) { s.recs = append(s.recs, rec) }
}

// WithRegistry makes the network count its always-on metrics in reg
// instead of a private registry, letting several components (network,
// dispatcher, benchmark harness) share one snapshot.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *settings) { s.reg = reg }
}

// WithFaults attaches a deterministic fault-injection plan to the
// epoch pipeline. Each epoch, every shard consults the plan:
// stragglers seal their MicroBlock late (modeled execution time scaled
// by the straggle factor), while crashed shards, dropped MicroBlocks
// and corrupt StateDeltas all lose the shard's block — the DS merge
// skips it, the shard's committee is charged a PBFT view change, and
// the whole batch is requeued at the tail of the Submit queue. After
// Config.FaultEscalation consecutive losses — counted with or without
// a plan, since the node runtime loses blocks to the transport too —
// the dispatcher reroutes the shard's traffic to DS execution until
// the shard seals a healthy block again. An empty (or nil) plan leaves
// the pipeline byte-identical to an unfaulted network.
func WithFaults(plan *fault.Plan) Option {
	return func(s *settings) { s.faults = plan }
}

// WithFaultEscalation overrides the unavailability-backoff bound (see
// Config.FaultEscalation). Values below 1 are clamped to 1.
func WithFaultEscalation(epochs int) Option {
	return func(s *settings) {
		if epochs < 1 {
			epochs = 1
		}
		s.cfg.FaultEscalation = epochs
	}
}

// WithStateBackends puts the network's canonical state on external
// storage engines from birth: the account table is created on backend
// (chain.NewAccountsOn) and, when cp is non-nil, every contract's
// canonical state is paged through it. internal/pager implements both
// faces over one disk-backed LRU cache; wiring it here — rather than
// adopting after genesis — means a huge genesis population pages to
// disk as it is provisioned instead of materialising in memory first.
// Either argument may be nil to keep that side on the default
// resident representation.
func WithStateBackends(backend chain.AccountBackend, cp chain.ContractPager) Option {
	return func(s *settings) {
		s.accounts = backend
		s.contPager = cp
	}
}
