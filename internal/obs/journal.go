package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Journal is a Recorder that streams every event as one JSON line
// (JSONL). Each line carries a monotonically increasing sequence
// number, the sim-time stamp produced by the journal's clock, the event
// name, and the event's fields in a fixed order.
//
// The journal is safe for concurrent use; lines are written atomically
// under an internal mutex. One network's epoch pipeline emits from one
// goroutine, so its journal is deterministic under an injected clock
// (the golden-file test in internal/shard relies on it); events from
// concurrent submitters or several node actors sharing a journal
// interleave as scheduled.
type Journal struct {
	mu    sync.Mutex
	w     *bufio.Writer
	clock func() time.Duration
	seq   uint64
	buf   []byte
	err   error
}

// JournalOption configures a Journal.
type JournalOption func(*Journal)

// WithClock replaces the journal's sim-time source. The default clock
// is monotonic host time since the journal was created; tests inject a
// deterministic counter.
func WithClock(clock func() time.Duration) JournalOption {
	return func(j *Journal) { j.clock = clock }
}

// NewJournal creates a journal writing JSONL to w. Call Close (or
// Flush) when done — events are buffered.
func NewJournal(w io.Writer, opts ...JournalOption) *Journal {
	start := time.Now()
	j := &Journal{
		w:     bufio.NewWriter(w),
		clock: func() time.Duration { return time.Since(start) },
		buf:   make([]byte, 0, 256),
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Flush writes buffered events through to the underlying writer and
// returns the first write error encountered so far.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes the journal. The underlying writer is not closed (the
// journal does not own it).
func (j *Journal) Close() error { return j.Flush() }

// begin starts a line: {"seq":N,"t_ns":T,"event":"...","epoch":E
// and returns with j.mu held.
func (j *Journal) begin(event string, epoch uint64) []byte {
	j.mu.Lock()
	j.seq++
	b := j.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, j.seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, int64(j.clock()), 10)
	b = append(b, `,"event":"`...)
	b = append(b, event...)
	b = append(b, `","epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	return b
}

// end closes the line, writes it, and releases j.mu.
func (j *Journal) end(b []byte) {
	b = append(b, "}\n"...)
	j.buf = b[:0]
	if _, err := j.w.Write(b); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, v)
}

func appendBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendBool(b, v)
}

// TxDispatched implements Recorder.
func (j *Journal) TxDispatched(epoch, tx uint64, shard int, reason string) {
	b := j.begin("tx_dispatched", epoch)
	b = appendInt(b, "tx", int64(tx))
	b = appendInt(b, "shard", int64(shard))
	b = appendStr(b, "reason", reason)
	j.end(b)
}

// ShardExecStart implements Recorder.
func (j *Journal) ShardExecStart(epoch uint64, shard, queued int) {
	b := j.begin("shard_exec_start", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "queued", int64(queued))
	j.end(b)
}

// ShardExecEnd implements Recorder.
func (j *Journal) ShardExecEnd(epoch uint64, shard int, took time.Duration) {
	b := j.begin("shard_exec_end", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "took_ns", int64(took))
	j.end(b)
}

// MicroBlockSealed implements Recorder.
func (j *Journal) MicroBlockSealed(epoch uint64, shard, receipts, deltas, deferred int, gasUsed uint64) {
	b := j.begin("micro_block_sealed", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "receipts", int64(receipts))
	b = appendInt(b, "deltas", int64(deltas))
	b = appendInt(b, "deferred", int64(deferred))
	b = appendInt(b, "gas_used", int64(gasUsed))
	j.end(b)
}

// DeltaMerged implements Recorder.
func (j *Journal) DeltaMerged(epoch uint64, contracts, deltas, entries, conflicts int, took time.Duration) {
	b := j.begin("delta_merged", epoch)
	b = appendInt(b, "contracts", int64(contracts))
	b = appendInt(b, "deltas", int64(deltas))
	b = appendInt(b, "entries", int64(entries))
	b = appendInt(b, "conflicts", int64(conflicts))
	b = appendInt(b, "took_ns", int64(took))
	j.end(b)
}

// TxRequeued implements Recorder.
func (j *Journal) TxRequeued(epoch uint64, shard, count int) {
	b := j.begin("tx_requeued", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "count", int64(count))
	j.end(b)
}

// ShardFault implements Recorder.
func (j *Journal) ShardFault(epoch uint64, shard, lost int) {
	b := j.begin("shard_fault", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "lost", int64(lost))
	j.end(b)
}

// ShardEscalated implements Recorder.
func (j *Journal) ShardEscalated(epoch uint64, shard, txs int) {
	b := j.begin("shard_escalated", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "txs", int64(txs))
	j.end(b)
}

// OverflowGuardTripped implements Recorder.
func (j *Journal) OverflowGuardTripped(epoch uint64, shard int, tx uint64) {
	b := j.begin("overflow_guard_tripped", epoch)
	b = appendInt(b, "shard", int64(shard))
	b = appendInt(b, "tx", int64(tx))
	j.end(b)
}

// TransitionCompiled implements Recorder.
func (j *Journal) TransitionCompiled(epoch uint64, contract, transition string, compiled, fastPath bool) {
	b := j.begin("transition_compiled", epoch)
	b = appendStr(b, "contract", contract)
	b = appendStr(b, "transition", transition)
	b = appendBool(b, "compiled", compiled)
	b = appendBool(b, "fast_path", fastPath)
	j.end(b)
}

// FrameSent implements Recorder. Frame events carry node names
// instead of an epoch: links outlive epochs and the transport layer
// does not parse payloads.
func (j *Journal) FrameSent(from, to, msg string, bytes int) {
	j.mu.Lock()
	j.seq++
	b := j.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, j.seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, int64(j.clock()), 10)
	b = append(b, `,"event":"frame_sent"`...)
	b = appendStr(b, "from", from)
	b = appendStr(b, "to", to)
	b = appendStr(b, "msg", msg)
	b = appendInt(b, "bytes", int64(bytes))
	j.end(b)
}

// EpochFinalized implements Recorder.
func (j *Journal) EpochFinalized(s EpochSummary) {
	b := j.begin("epoch_finalized", s.Epoch)
	b = appendInt(b, "committed", int64(s.Committed))
	b = appendInt(b, "failed", int64(s.Failed))
	b = appendInt(b, "rejected", int64(s.Rejected))
	b = appendInt(b, "deferred", int64(s.Deferred))
	b = appendInt(b, "ds_committed", int64(s.DSCommitted))
	b = appendInt(b, "delta_entries", int64(s.DeltaEntries))
	b = appendInt(b, "dispatch_ns", int64(s.Dispatch))
	b = appendInt(b, "exec_max_ns", int64(s.ExecMax))
	b = appendInt(b, "exec_sum_ns", int64(s.ExecSum))
	b = appendInt(b, "merge_ns", int64(s.Merge))
	b = appendInt(b, "ds_ns", int64(s.DSExec))
	b = appendInt(b, "measured_ns", int64(s.Measured))
	j.end(b)
}
