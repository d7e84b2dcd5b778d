package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names every end-to-end metric and its unit; BENCHMARK.json
// carries the same list with directions and bounds.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"committed_tps":  "1/s",
	"commit_p50_ms":  "ms",
	"commit_p90_ms":  "ms",
	"cpu_ms_per_ktx": "ms",
	"live_heap_mb":   "MB",
}

// perLayer names every per-layer metric and its unit. A traced run
// reports all of them on every workload; one that does not apply to a
// workload (the RPC rows on an epoch workload) reads 0.
var perLayer = map[string]string{
	"rpc.submit_rtt_p50_us":     "us",
	"rpc.submit_rtt_p99_us":     "us",
	"rpc.read_rtt_p50_us":       "us",
	"rpc.serve_submit_p50_us":   "us",
	"rpc.serve_read_p50_us":     "us",
	"rpc.requests":              "count",
	"rpc.errors":                "count",
	"rpc.commit_p99_ms":         "ms",
	"rpc.slo_miss_share":        "ratio",
	"bench.gen_lateness_p99_ms": "ms",

	"wire.tx_encode_ns":                "ns",
	"wire.tx_decode_ns":                "ns",
	"wire.txbatch_encode_ns_per_tx":    "ns",
	"wire.txbatch_decode_ns_per_tx":    "ns",
	"wire.microblock_encode_ns_per_tx": "ns",
	"wire.microblock_decode_ns_per_tx": "ns",
	"wire.finalblock_encode_ns_per_tx": "ns",
	"wire.finalblock_decode_ns_per_tx": "ns",
	"wire.finalblock_bytes_per_tx":     "B",

	"node.frames_per_tx":               "count",
	"node.bytes_per_tx":                "B",
	"node.send_us_per_frame":           "us",
	"node.submit_rtt_p50_us":           "us",
	"node.submit_rtt_mean_us":          "us",
	"node.tick_p50_ms":                 "ms",
	"node.tick_p99_ms":                 "ms",
	"node.txs_per_epoch_p50":           "count",
	"node.epochs":                      "count",
	"node.lost_microblocks":            "count",
	"node.broadcast_to_receipt_p50_ms": "ms",
	"node.replica_lag_p50_ms":          "ms",
	"node.cluster_start_ms":            "ms",

	"dispatch.submit_ns_per_tx":      "ns",
	"dispatch.begin_epoch_us_per_tx": "us",
	"dispatch.ds_share":              "ratio",

	"shard.execute_us_per_tx":              "us",
	"shard.finalize_ms_per_epoch":          "ms",
	"shard.finalize_us_per_tx":             "us",
	"shard.merge_ms_per_epoch":             "ms",
	"shard.delta_entries_per_tx":           "count",
	"shard.ds_exec_us_per_dstx":            "us",
	"shard.apply_final_block_ms_per_epoch": "ms",

	"store.commit_p50_ms":     "ms",
	"store.commit_p99_ms":     "ms",
	"store.commits_per_ktx":   "count",
	"store.snapshot_epoch_ms": "ms",
	"store.fsync_probe_us":    "us",
	"store.replay_commit_ms":  "ms",

	"core.provision_ms": "ms",

	"runtime.alloc_kb_per_tx":       "kB",
	"runtime.gc_cpu_share":          "ratio",
	"runtime.heap_growth_kb_per_tx": "kB",

	"ledger.execute_share":       "ratio",
	"ledger.unattributed_share":  "ratio",
	"bench.trace_overhead_share": "ratio",
	"bench.traced_tps":           "1/s",
	"bench.samples":              "count",
}

// quantiles sorts a copy of values and reads each q-quantile by the
// nearest-rank rule; 0 for no values.
func quantiles(values []float64, qs ...float64) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(sorted) > 0 {
			out[i] = sorted[int(q*float64(len(sorted)-1))]
		}
	}
	return out
}

func median(values []float64) float64 { return quantiles(values, 0.5)[0] }

func mean(values []float64) float64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return div(sum, float64(len(values)))
}

// div is a / b, or 0 where there was nothing to divide by: a metric
// that does not apply to a workload reads 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// midMean is the interquartile mean: the mean of the middle half of
// values. It ignores outliers as a median does, and where slices fall
// into several groups (epochs with and without a snapshot) it moves
// smoothly where a median would jump from one group to the next.
func midMean(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return mean(sorted[len(sorted)/4 : len(sorted)-len(sorted)/4])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// outcome is what a timed window amounted to, as a user would see it.
type outcome struct {
	attempted int
	failed    int // rejected + lost + Success=false + errored reads
	committed int
	window    time.Duration // first due or send to last receipt visible
	latencies []float64     // ms, committed transactions only
	// p50s and p90s are the latency percentiles of each slice of the
	// window: one epoch of an epochLoop, one second of due or send times
	// otherwise. The end-to-end percentiles are their interquartile
	// means, so a second or two of a stalled host moves one slice, not
	// the result.
	p50s, p90s []float64
	firstErr   error
}

// tally folds the timed samples and reads into an outcome.
func (a *attempt) tally() outcome {
	var o outcome
	var first, last time.Time
	var slices [][]float64
	for i := range a.timed() {
		s := &a.timed()[i]
		o.attempted++
		if first.IsZero() || s.start.Before(first) {
			first = s.start
		}
		if !s.committed {
			o.failed++
			if o.firstErr == nil {
				o.firstErr = s.err
				if s.err == nil {
					o.firstErr = fmt.Errorf("transaction %d: no successful receipt", s.id)
				}
			}
			continue
		}
		o.committed++
		o.latencies = append(o.latencies, ms(s.latency))
		slice := i / max(a.sz.batch, 1)
		if a.sp.kind != epochLoop {
			slice = int(s.start.Sub(a.begin) / time.Second)
		}
		for len(slices) <= slice {
			slices = append(slices, nil)
		}
		slices[slice] = append(slices[slice], ms(s.latency))
		if visible := s.start.Add(s.latency); visible.After(last) {
			last = visible
		}
	}
	for c := range a.reads {
		for _, r := range a.reads[c] {
			o.attempted++
			if r.err != nil {
				o.failed++
				if o.firstErr == nil {
					o.firstErr = r.err
				}
			}
		}
	}
	o.window = last.Sub(first)
	fullest := 0
	for _, lat := range slices {
		fullest = max(fullest, len(lat))
	}
	for _, lat := range slices {
		// The last, partial second of a window holds too few samples
		// for a percentile.
		if 2*len(lat) >= fullest {
			p := quantiles(lat, 0.5, 0.9)
			o.p50s, o.p90s = append(o.p50s, p[0]), append(o.p90s, p[1])
		}
	}
	return o
}

// endToEndMetrics are the numbers a user of the cluster would see.
func (a *attempt) endToEndMetrics(o outcome, setups []time.Duration) map[string]metric {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	m := map[string]float64{
		"setup_s":        median(secs),
		"committed_tps":  float64(o.committed) / o.window.Seconds(),
		"commit_p50_ms":  midMean(o.p50s),
		"commit_p90_ms":  midMean(o.p90s),
		"cpu_ms_per_ktx": ms(a.cpu) / float64(o.committed) * 1000,
		"live_heap_mb":   float64(a.liveHeap) / 1e6,
	}
	return withUnits(m, endToEnd)
}

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	return out
}
