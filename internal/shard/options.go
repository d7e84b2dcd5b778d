package shard

import "cosplit/internal/obs"

// Config is the network's resolved configuration, readable through
// Network.Config. Networks are constructed with NewNetwork and
// functional options (WithShards, WithGasLimits, WithRecorder, ...);
// code outside this package never builds Config values. The fault
// escalation bound is no setting: it is the constant FaultEscalation.
type Config struct {
	NumShards int
	// ShardGasLimit caps the gas a shard commits per epoch; DSGasLimit
	// caps the DS committee. These mirror Zilliqa's per-MicroBlock and
	// per-FinalBlock gas limits.
	ShardGasLimit uint64
	DSGasLimit    uint64
	// SplitGasAccounting enables the Sec. 4.2.2 per-shard gas budgets.
	SplitGasAccounting bool
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
}

// FaultEscalation is the unavailability-backoff bound: after this many
// consecutive epochs of losing a shard's MicroBlock — to its fault
// plan, or to a shard node that does not answer within the collect
// timeout — the dispatcher stops routing to the shard and its traffic
// escalates to DS execution until the shard seals a healthy block
// again.
const FaultEscalation = 3

// DefaultConfig mirrors the paper's experimental setup: mainnet-like
// gas limits with split gas accounting. NewNetwork(WithShards(n))
// applies the same defaults.
func DefaultConfig(numShards int) Config {
	return Config{
		NumShards:          numShards,
		ShardGasLimit:      2_000_000,
		DSGasLimit:         2_000_000,
		SplitGasAccounting: true,
		CompiledExecution:  true,
	}
}

// settings is the resolved form of a NewNetwork option list.
type settings struct {
	cfg  Config
	recs []obs.Recorder
	reg  *obs.Registry
}

// Option configures a Network at construction time. The zero option
// list reproduces the paper's experimental setup on a single shard:
// 2M gas per MicroBlock and FinalBlock, split gas accounting on,
// compiled execution, overflow guard off, no tracing.
type Option func(*settings)

// WithShards sets the number of execution shards (the DS committee is
// separate and always present).
func WithShards(n int) Option {
	return func(s *settings) { s.cfg.NumShards = n }
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
