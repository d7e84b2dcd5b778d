package obs

import "time"

// EpochSummary is the record of one epoch of the Fig. 10 pipeline:
// transaction counts plus the per-stage timings. The EpochFinalized
// event carries it, and shard.EpochStats embeds it, so the caller and
// the recorder read the same fields. Every duration is host-measured.
type EpochSummary struct {
	Epoch     uint64
	Committed int
	Failed    int
	Rejected  int
	Deferred  int
	// DSCommitted is the part of Committed the DS committee ran.
	DSCommitted int
	// DeltaEntries is the total number of merged state components.
	DeltaEntries int

	// Per-stage timings. ExecMax is the slowest shard whose MicroBlock
	// arrived (what an epoch waits for, shards being distinct machines);
	// ExecSum totals them (what a non-pipelined executor would pay).
	// Measured is the host wall-clock from BeginEpoch until
	// FinalizeEpoch has committed the DS committee's run: it stops
	// before the FinalBlock's state root is sealed (epoch.root_time)
	// and before a state store journals the epoch.
	Dispatch time.Duration
	ExecMax  time.Duration
	ExecSum  time.Duration
	Merge    time.Duration
	DSExec   time.Duration
	Measured time.Duration
}

// Recorder receives the typed trace events the pipeline emits. Event
// methods take only scalar arguments (and the by-value EpochSummary),
// so a call into the no-op implementation allocates nothing.
//
// Implementations must be safe for concurrent use: one network's epoch
// pipeline emits from a single goroutine, but frame events come from
// every link of a node cluster, and several node actors may share one
// recorder.
type Recorder interface {
	// TxDispatched reports the routing verdict for one transaction:
	// shard >= 0 is an in-shard placement, -1 the DS committee, -2 a
	// rejection. Reason is the dispatcher's precompiled reason string.
	TxDispatched(epoch, tx uint64, shard int, reason string)
	// ShardExecStart marks a shard starting its queue of queued
	// transactions.
	ShardExecStart(epoch uint64, shard, queued int)
	// ShardExecEnd marks a shard finishing execution after took.
	ShardExecEnd(epoch uint64, shard int, took time.Duration)
	// MicroBlockSealed reports a shard's per-epoch output: receipts
	// produced, state deltas extracted, transactions deferred past the
	// gas limit, and gas committed.
	MicroBlockSealed(epoch uint64, shard, receipts, deltas, deferred int, gasUsed uint64)
	// DeltaMerged reports the DS committee's three-way merge: contracts
	// touched, deltas folded, total merged components, join conflicts
	// (non-zero only when the merge aborts), and its duration.
	DeltaMerged(epoch uint64, contracts, deltas, entries, conflicts int, took time.Duration)
	// TxRequeued reports count transactions deferred or lost and put
	// back at the tail of the Submit queue (shard -1 = the DS
	// committee's deferrals).
	TxRequeued(epoch uint64, shard, count int)
	// ShardFault reports a shard whose MicroBlock never reached the
	// merge: lost is the number of batch transactions requeued with it.
	ShardFault(epoch uint64, shard, lost int)
	// ShardEscalated reports the dispatcher's unavailability backoff
	// escalating a repeatedly faulting shard: txs transactions the
	// routing placed on the shard were executed by the DS committee
	// instead this epoch.
	ShardEscalated(epoch uint64, shard, txs int)
	// OverflowGuardTripped reports a transaction rejected by the Sec. 6
	// conservative integer-overflow guard.
	OverflowGuardTripped(epoch uint64, shard int, tx uint64)
	// TransitionCompiled reports the deploy-time compilation outcome of
	// one transition: whether it lowered to the closure-chain executor
	// (compiled=false means it will run on the interpreter fallback)
	// and whether the compiled form engaged the fused Option fast path.
	TransitionCompiled(epoch uint64, contract, transition string, compiled, fastPath bool)
	// FrameSent reports one encoded frame leaving a node over a
	// transport link. msg is the wire message type label and bytes the
	// full frame size. Transport events carry node names, not epochs —
	// links outlive epochs and the transport layer does not parse
	// payloads.
	FrameSent(from, to, msg string, bytes int)
	// EpochFinalized is the last event of an epoch and carries the full
	// per-stage summary.
	EpochFinalized(s EpochSummary)
}

// Nop is the default Recorder: every method is an empty body, so the
// instrumented hot path stays allocation-free when tracing is off.
type Nop struct{}

// TxDispatched implements Recorder.
func (Nop) TxDispatched(epoch, tx uint64, shard int, reason string) {}

// ShardExecStart implements Recorder.
func (Nop) ShardExecStart(epoch uint64, shard, queued int) {}

// ShardExecEnd implements Recorder.
func (Nop) ShardExecEnd(epoch uint64, shard int, took time.Duration) {}

// MicroBlockSealed implements Recorder.
func (Nop) MicroBlockSealed(epoch uint64, shard, receipts, deltas, deferred int, gasUsed uint64) {}

// DeltaMerged implements Recorder.
func (Nop) DeltaMerged(epoch uint64, contracts, deltas, entries, conflicts int, took time.Duration) {
}

// TxRequeued implements Recorder.
func (Nop) TxRequeued(epoch uint64, shard, count int) {}

// ShardFault implements Recorder.
func (Nop) ShardFault(epoch uint64, shard, lost int) {}

// ShardEscalated implements Recorder.
func (Nop) ShardEscalated(epoch uint64, shard, txs int) {}

// OverflowGuardTripped implements Recorder.
func (Nop) OverflowGuardTripped(epoch uint64, shard int, tx uint64) {}

// TransitionCompiled implements Recorder.
func (Nop) TransitionCompiled(epoch uint64, contract, transition string, compiled, fastPath bool) {}

// FrameSent implements Recorder.
func (Nop) FrameSent(from, to, msg string, bytes int) {}

// EpochFinalized implements Recorder.
func (Nop) EpochFinalized(s EpochSummary) {}

// multi fans every event out to several recorders in order.
type multi []Recorder

// Multi combines recorders: Nop members are dropped, zero remaining
// recorders collapse to Nop, and a single recorder is returned as-is.
func Multi(recs ...Recorder) Recorder {
	kept := make(multi, 0, len(recs))
	for _, r := range recs {
		if r == nil {
			continue
		}
		if _, isNop := r.(Nop); isNop {
			continue
		}
		kept = append(kept, r)
	}
	switch len(kept) {
	case 0:
		return Nop{}
	case 1:
		return kept[0]
	}
	return kept
}

// TxDispatched implements Recorder.
func (m multi) TxDispatched(epoch, tx uint64, shard int, reason string) {
	for _, r := range m {
		r.TxDispatched(epoch, tx, shard, reason)
	}
}

// ShardExecStart implements Recorder.
func (m multi) ShardExecStart(epoch uint64, shard, queued int) {
	for _, r := range m {
		r.ShardExecStart(epoch, shard, queued)
	}
}

// ShardExecEnd implements Recorder.
func (m multi) ShardExecEnd(epoch uint64, shard int, took time.Duration) {
	for _, r := range m {
		r.ShardExecEnd(epoch, shard, took)
	}
}

// MicroBlockSealed implements Recorder.
func (m multi) MicroBlockSealed(epoch uint64, shard, receipts, deltas, deferred int, gasUsed uint64) {
	for _, r := range m {
		r.MicroBlockSealed(epoch, shard, receipts, deltas, deferred, gasUsed)
	}
}

// DeltaMerged implements Recorder.
func (m multi) DeltaMerged(epoch uint64, contracts, deltas, entries, conflicts int, took time.Duration) {
	for _, r := range m {
		r.DeltaMerged(epoch, contracts, deltas, entries, conflicts, took)
	}
}

// TxRequeued implements Recorder.
func (m multi) TxRequeued(epoch uint64, shard, count int) {
	for _, r := range m {
		r.TxRequeued(epoch, shard, count)
	}
}

// ShardFault implements Recorder.
func (m multi) ShardFault(epoch uint64, shard, lost int) {
	for _, r := range m {
		r.ShardFault(epoch, shard, lost)
	}
}

// ShardEscalated implements Recorder.
func (m multi) ShardEscalated(epoch uint64, shard, txs int) {
	for _, r := range m {
		r.ShardEscalated(epoch, shard, txs)
	}
}

// OverflowGuardTripped implements Recorder.
func (m multi) OverflowGuardTripped(epoch uint64, shard int, tx uint64) {
	for _, r := range m {
		r.OverflowGuardTripped(epoch, shard, tx)
	}
}

// TransitionCompiled implements Recorder.
func (m multi) TransitionCompiled(epoch uint64, contract, transition string, compiled, fastPath bool) {
	for _, r := range m {
		r.TransitionCompiled(epoch, contract, transition, compiled, fastPath)
	}
}

// FrameSent implements Recorder.
func (m multi) FrameSent(from, to, msg string, bytes int) {
	for _, r := range m {
		r.FrameSent(from, to, msg, bytes)
	}
}

// EpochFinalized implements Recorder.
func (m multi) EpochFinalized(s EpochSummary) {
	for _, r := range m {
		r.EpochFinalized(s)
	}
}
