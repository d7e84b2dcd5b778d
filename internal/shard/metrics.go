package shard

import "cosplit/internal/obs"

// netMetrics caches the network's always-on instruments so the epoch
// pipeline updates them with plain atomic operations (no registry map
// lookups, no allocations) on the hot path.
type netMetrics struct {
	epochs      *obs.Counter
	committed   *obs.Counter
	failed      *obs.Counter
	rejected    *obs.Counter
	deferred    *obs.Counter
	dsCommitted *obs.Counter
	// mergeContracts counts contracts whose shard deltas were joined;
	// mergeConflicts counts commit phases aborted by a join conflict
	// (two shards overwriting one owned component), mergeOverflows those
	// aborted by integer deltas summing out of range.
	mergeContracts *obs.Counter
	mergeConflicts *obs.Counter
	mergeOverflows *obs.Counter
	overflowTrips  *obs.Counter

	// Loss and recovery: MicroBlocks that never arrived, the (requeued)
	// transactions they carried, shard-epochs spent escalated to DS,
	// and transactions rerouted by the availability mask.
	faultLostBlocks *obs.Counter
	faultLostTxs    *obs.Counter
	escalations     *obs.Counter
	escalatedTxs    *obs.Counter

	mempool *obs.Gauge

	queueDepth   *obs.Histogram // transactions queued per shard per epoch
	shardGas     *obs.Histogram // gas committed per MicroBlock
	deltaEntries *obs.Histogram // merged state components per epoch

	// Compiled execution: programs compiled at deploy, transitions
	// lowered vs falling back to the interpreter, runtime dispatches by
	// engine (fused fast path / generic compiled / interpreter
	// fallback), and pooled execution machines served by reuse.
	compilePrograms     *obs.Counter
	compileTransitions  *obs.Counter
	compileFallbacks    *obs.Counter
	compileFastRuns     *obs.Counter
	compileGenericRuns  *obs.Counter
	compileFallbackRuns *obs.Counter
	compilePoolRecycles *obs.Counter

	// Authenticated state root: leaves committed in the incremental
	// trie, the bytes it holds (trie.StateRoots.Bytes), and the
	// per-epoch cost of sealing the root into a FinalBlock (rehash of
	// the dirtied paths only).
	rootLeaves *obs.Gauge
	rootBytes  *obs.Gauge
	rootTime   *obs.Histogram

	dispatchTime  *obs.Histogram
	shardExecTime *obs.Histogram // per shard per epoch
	mergeTime     *obs.Histogram
	dsExecTime    *obs.Histogram
	measuredTime  *obs.Histogram // host wall-clock per epoch
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	return netMetrics{
		epochs:              reg.Counter("net.epochs"),
		committed:           reg.Counter("tx.committed"),
		failed:              reg.Counter("tx.failed"),
		rejected:            reg.Counter("tx.rejected"),
		deferred:            reg.Counter("tx.deferred"),
		dsCommitted:         reg.Counter("tx.ds_committed"),
		mergeContracts:      reg.Counter("merge.contracts"),
		mergeConflicts:      reg.Counter("merge.conflicts"),
		mergeOverflows:      reg.Counter("merge.overflows"),
		overflowTrips:       reg.Counter("shard.overflow_guard_trips"),
		faultLostBlocks:     reg.Counter("fault.lost_blocks"),
		faultLostTxs:        reg.Counter("fault.lost_txs"),
		escalations:         reg.Counter("fault.escalations"),
		escalatedTxs:        reg.Counter("fault.escalated_txs"),
		mempool:             reg.Gauge("net.mempool"),
		queueDepth:          reg.SizeHistogram("shard.queue_depth"),
		shardGas:            reg.SizeHistogram("shard.gas_used"),
		deltaEntries:        reg.SizeHistogram("merge.delta_entries"),
		compilePrograms:     reg.Counter("compile.programs"),
		compileTransitions:  reg.Counter("compile.transitions"),
		compileFallbacks:    reg.Counter("compile.fallbacks"),
		compileFastRuns:     reg.Counter("compile.fast_runs"),
		compileGenericRuns:  reg.Counter("compile.generic_runs"),
		compileFallbackRuns: reg.Counter("compile.fallback_runs"),
		compilePoolRecycles: reg.Counter("compile.pool_recycles"),

		rootLeaves: reg.Gauge("state.root_leaves"),
		rootBytes:  reg.Gauge("state.root_bytes"),
		rootTime:   reg.TimeHistogram("epoch.root_time"),

		dispatchTime:  reg.TimeHistogram("epoch.dispatch_time"),
		shardExecTime: reg.TimeHistogram("shard.exec_time"),
		mergeTime:     reg.TimeHistogram("epoch.merge_time"),
		dsExecTime:    reg.TimeHistogram("epoch.ds_exec_time"),
		measuredTime:  reg.TimeHistogram("epoch.measured_time"),
	}
}
