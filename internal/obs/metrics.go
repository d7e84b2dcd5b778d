// Package obs is the simulator's observability layer: a
// zero-dependency metrics registry (counters, gauges, and fixed-bucket
// time/size histograms) plus a structured epoch-trace journal.
//
// The package is wired into the pipeline through two channels:
//
//   - Metrics are always on. Instruments are plain atomics registered
//     once (at network/dispatcher construction) and updated lock-free
//     on the hot path, so steady-state epochs pay a handful of atomic
//     adds and allocate nothing. An immutable view is taken with
//     Registry.Snapshot.
//
//   - Tracing is opt-in. The pipeline calls the Recorder interface for
//     every typed event; the default Nop recorder compiles to empty
//     method calls with scalar arguments (no boxing, 0 allocs/op —
//     asserted by TestNopRecorderZeroAllocs), and a Journal recorder
//     streams JSONL when enabled.
//
// obs deliberately depends only on the standard library so every layer
// of the simulator (chain, dispatch, shard, bench) can use
// it without import cycles.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic; Add does
// not enforce this).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// TimeBuckets is the fixed bucket layout (upper bounds, nanoseconds)
// used by every time histogram: 1µs…10s in a 1-2-5 progression. A fixed
// layout keeps histograms mergeable across runs and snapshots
// byte-comparable.
var TimeBuckets = []int64{
	int64(1 * time.Microsecond), int64(2 * time.Microsecond), int64(5 * time.Microsecond),
	int64(10 * time.Microsecond), int64(20 * time.Microsecond), int64(50 * time.Microsecond),
	int64(100 * time.Microsecond), int64(200 * time.Microsecond), int64(500 * time.Microsecond),
	int64(1 * time.Millisecond), int64(2 * time.Millisecond), int64(5 * time.Millisecond),
	int64(10 * time.Millisecond), int64(20 * time.Millisecond), int64(50 * time.Millisecond),
	int64(100 * time.Millisecond), int64(200 * time.Millisecond), int64(500 * time.Millisecond),
	int64(1 * time.Second), int64(2 * time.Second), int64(5 * time.Second), int64(10 * time.Second),
}

// SizeBuckets is the fixed bucket layout (upper bounds) used by every
// size/count histogram: powers of two from 1 to 2^20.
var SizeBuckets = func() []int64 {
	b := make([]int64, 21)
	for i := range b {
		b[i] = 1 << i
	}
	return b
}()

// Histogram is a fixed-bucket histogram with atomic counts. Values
// above the last bound land in an overflow bucket.
type Histogram struct {
	bounds []int64 // immutable after construction
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Linear scan: the layouts are ≤23 buckets and most observations
	// land early; this avoids the bounds checks of sort.Search on the
	// hot path and stays allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry holds named instruments. Registration (Counter, Gauge,
// TimeHistogram, SizeHistogram) is idempotent — the same name returns
// the same instrument — and intended for construction time; updates on
// the returned instruments are lock-free.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// TimeHistogram returns the histogram registered under name with the
// TimeBuckets layout, creating it on first use.
func (r *Registry) TimeHistogram(name string) *Histogram {
	return r.histogram(name, TimeBuckets)
}

// SizeHistogram returns the histogram registered under name with the
// SizeBuckets layout, creating it on first use.
func (r *Registry) SizeHistogram(name string) *Histogram {
	return r.histogram(name, SizeBuckets)
}

func (r *Registry) histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations with value <= Le. The overflow bucket has Le = -1.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the immutable view of one histogram. Empty
// buckets are elided.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is an immutable point-in-time view of a Registry. It shares
// no state with the live instruments: mutating the registry after the
// snapshot does not change it.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		for i := range h.counts {
			n := h.counts[i].Load()
			if n == 0 {
				continue
			}
			le := int64(-1) // overflow
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON serialises the snapshot as indented JSON (map keys are
// emitted in sorted order, so the output is deterministic for a given
// set of values).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
