package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx.committed")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("tx.committed") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("mempool.size")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counters["tx.committed"] != 5 || snap.Gauges["mempool.size"] != 5 {
		t.Errorf("snapshot = %+v", snap)
	}
	// The snapshot is immutable: later updates don't change it.
	c.Inc()
	if snap.Counters["tx.committed"] != 5 {
		t.Error("snapshot mutated by a later counter update")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.TimeHistogram("epoch.measured_time")
	h.ObserveDuration(500 * time.Nanosecond) // below first bound -> bucket 0
	h.ObserveDuration(time.Microsecond)      // == first bound (inclusive)
	h.ObserveDuration(3 * time.Millisecond)  // 2ms < v <= 5ms
	h.ObserveDuration(time.Minute)           // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	hs := r.Snapshot().Histograms["epoch.measured_time"]
	got := map[int64]int64{}
	for _, b := range hs.Buckets {
		got[b.Le] = b.Count
	}
	if got[int64(time.Microsecond)] != 2 {
		t.Errorf("1µs bucket = %d, want 2 (below-first and at-bound)", got[int64(time.Microsecond)])
	}
	if got[int64(5*time.Millisecond)] != 1 {
		t.Errorf("5ms bucket = %d, want 1", got[int64(5*time.Millisecond)])
	}
	if got[-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", got[-1])
	}
	if hs.Mean() <= 0 {
		t.Error("mean not positive")
	}
}

func TestSizeHistogramLayout(t *testing.T) {
	h := NewRegistry().SizeHistogram("shard.queue_depth")
	h.Observe(0)
	h.Observe(1)
	h.Observe(1025)
	if h.Count() != 3 || h.Sum() != 1026 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.SizeHistogram("h").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a"] != 1 || round.Histograms["h"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", round)
	}
}

func TestJournalEmitsOneLinePerEvent(t *testing.T) {
	var buf bytes.Buffer
	var tick int64
	j := NewJournal(&buf, WithClock(func() time.Duration {
		tick++
		return time.Duration(tick)
	}))
	j.TxDispatched(1, 42, 3, "constraints satisfied")
	j.ShardExecStart(1, 3, 10)
	j.ShardExecEnd(1, 3, 5*time.Millisecond)
	j.MicroBlockSealed(1, 3, 10, 1, 0, 123)
	j.DeltaMerged(1, 1, 1, 7, 0, time.Millisecond)
	j.TxRequeued(1, -1, 2)
	j.OverflowGuardTripped(1, 0, 9)
	j.EpochFinalized(EpochSummary{Epoch: 1, Committed: 10})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	wantEvents := []string{
		"tx_dispatched", "shard_exec_start", "shard_exec_end",
		"micro_block_sealed", "delta_merged", "tx_requeued",
		"overflow_guard_tripped", "epoch_finalized",
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if m["event"] != wantEvents[i] {
			t.Errorf("line %d event = %v, want %s", i, m["event"], wantEvents[i])
		}
		if m["seq"] != float64(i+1) {
			t.Errorf("line %d seq = %v, want %d", i, m["seq"], i+1)
		}
		if m["t_ns"] != float64(i+1) {
			t.Errorf("line %d t_ns = %v, want %d (injected clock)", i, m["t_ns"], i+1)
		}
		if m["epoch"] != float64(1) {
			t.Errorf("line %d epoch = %v, want 1", i, m["epoch"])
		}
	}
}

func TestJournalEscapesReasonStrings(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.TxDispatched(1, 1, -1, `unshardable transition (⊥) with "quotes"`)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("escaped reason broke the line: %v\n%s", err, buf.String())
	}
	if !strings.Contains(m["reason"].(string), "⊥") {
		t.Errorf("reason mangled: %q", m["reason"])
	}
}

func TestMultiFansOutAndDropsNops(t *testing.T) {
	if _, isNop := Multi().(Nop); !isNop {
		t.Error("Multi() should collapse to Nop")
	}
	if _, isNop := Multi(Nop{}, nil, Nop{}).(Nop); !isNop {
		t.Error("Multi of nops should collapse to Nop")
	}
	c1, c2 := NewStageCollector(), NewStageCollector()
	if Multi(Nop{}, c1) != Recorder(c1) {
		t.Error("Multi with one real recorder should return it unwrapped")
	}
	m := Multi(c1, c2)
	want := EpochSummary{Epoch: 3, Committed: 2}
	m.EpochFinalized(want)
	for i, c := range []*StageCollector{c1, c2} {
		if c.Last() != want {
			t.Errorf("collector %d did not receive the fanned-out event: %+v", i, c.Last())
		}
	}
}

// TestNopRecorderZeroAllocs pins the observability contract the hot
// path relies on: with tracing off (the default Nop recorder) an event
// call through the Recorder interface performs zero allocations.
func TestNopRecorderZeroAllocs(t *testing.T) {
	var rec Recorder = Nop{}
	summary := EpochSummary{Epoch: 1, Committed: 10}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.TxDispatched(1, 2, 3, "constraints satisfied")
		rec.ShardExecStart(1, 0, 100)
		rec.ShardExecEnd(1, 0, time.Millisecond)
		rec.MicroBlockSealed(1, 0, 10, 2, 0, 999)
		rec.DeltaMerged(1, 1, 2, 3, 0, time.Millisecond)
		rec.TxRequeued(1, -1, 4)
		rec.OverflowGuardTripped(1, 0, 7)
		rec.FrameSent("shard-0", "ds", "micro_block", 512)
		rec.EpochFinalized(summary)
	})
	if allocs != 0 {
		t.Errorf("Nop recorder allocates %.1f/op, want 0", allocs)
	}
}

// TestJournalFrameEvents covers the transport-layer event: it carries
// node names and frame sizes instead of an epoch.
func TestJournalFrameEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.FrameSent("ds", "shard-0", "tx_batch", 128)
	j.FrameSent("shard-0", "ds", "micro_block", 512)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	wantBytes := []float64{128, 512}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if m["event"] != "frame_sent" {
			t.Errorf("line %d event = %v, want frame_sent", i, m["event"])
		}
		if m["bytes"] != wantBytes[i] {
			t.Errorf("line %d bytes = %v, want %v", i, m["bytes"], wantBytes[i])
		}
		if _, hasEpoch := m["epoch"]; hasEpoch {
			t.Errorf("line %d carries an epoch field; frame events must not", i)
		}
		if m["from"] == "" || m["to"] == "" || m["msg"] == "" {
			t.Errorf("line %d missing from/to/msg: %s", i, line)
		}
	}
}

// Counter updates must also stay allocation-free: metrics are always
// on, so the dispatcher hot path increments them per transaction.
func TestCounterZeroAllocs(t *testing.T) {
	c := NewRegistry().Counter("x")
	h := NewRegistry().TimeHistogram("y")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("counter/histogram update allocates %.1f/op, want 0", allocs)
	}
}
