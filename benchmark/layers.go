package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cosplit/internal/wire"
)

// sloLimit is the latency limit of the RPC workloads: a transaction
// that takes longer, or fails, misses it.
const sloLimit = 250 * time.Millisecond

// fsyncProbe is the disk's own floor: the median of 50 appends of
// 4 KB, each followed by fsync, to a file in the state directory.
func fsyncProbe(dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	took := make([]float64, 50)
	for i := range took {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took[i] = float64(time.Since(t0))
	}
	return time.Duration(median(took)), nil
}

// layerMetrics derives every per-layer metric from a traced run: the
// untraced and traced attempts of the same stream, the replay's stage
// clocks, and the fsync probe.
func layerMetrics(plain, traced *attempt, po, to outcome, st *stages, capt *capture, probe time.Duration) map[string]metric {
	a, tr := traced, traced.tr
	in := func(t time.Time) bool { return !t.Before(a.begin) && !t.After(a.end) }
	txs := float64(to.committed)
	m := map[string]float64{}

	// Front door, as the clients and the server saw it.
	var submitRTT, lateness []float64
	var missed, clientErrs int
	for _, s := range a.timed() {
		submitRTT = append(submitRTT, us(s.rtt))
		lateness = append(lateness, ms(s.late))
		if s.err != nil {
			clientErrs++
		}
		if !s.committed || s.latency > sloLimit {
			missed++
		}
	}
	var readRTT []float64
	for c := range a.reads {
		for _, r := range a.reads[c] {
			readRTT = append(readRTT, us(r.rtt))
			if r.err != nil {
				clientErrs++
			}
		}
	}
	var serveSubmit, serveRead []float64
	for _, e := range tr.serves {
		if !in(e.start) {
			continue
		}
		m["rpc.requests"]++
		switch {
		case e.method == "cosplit_sendRawTransaction":
			serveSubmit = append(serveSubmit, us(e.took))
		case strings.HasPrefix(e.method, "cosplit_get"):
			serveRead = append(serveRead, us(e.took))
		}
	}
	m["rpc.commit_p99_ms"] = quantiles(to.latencies, 0.99)[0]
	if a.sp.kind != epochLoop {
		p := quantiles(submitRTT, 0.5, 0.99)
		m["rpc.submit_rtt_p50_us"], m["rpc.submit_rtt_p99_us"] = p[0], p[1]
		m["rpc.read_rtt_p50_us"] = median(readRTT)
		m["rpc.serve_submit_p50_us"] = median(serveSubmit)
		m["rpc.serve_read_p50_us"] = median(serveRead)
		m["rpc.errors"] = float64(clientErrs)
		m["rpc.slo_miss_share"] = div(float64(missed), float64(len(a.timed())))
	}
	if a.sp.kind == openLoop {
		m["bench.gen_lateness_p99_ms"] = quantiles(lateness, 0.99)[0]
	}

	// Transport: every frame counted once, where it was sent.
	var frames, bytes float64
	var sending time.Duration
	submitSent := map[uint64]time.Time{} // lookup's Submit by correlation id
	var wireRTT []float64
	for _, e := range tr.frames {
		if !in(e.at) {
			continue
		}
		if e.send {
			frames++
			bytes += float64(e.size)
			sending += e.took
		}
		if e.role != "lookup" || e.frame == nil {
			continue
		}
		_, payload, _, err := wire.DecodeFrame(e.frame)
		if err != nil {
			continue
		}
		if e.send {
			if s, err := wire.DecodeSubmit(payload); err == nil {
				submitSent[s.Corr] = e.at
			}
		} else if r, err := wire.DecodeSubmitResp(payload); err == nil {
			if sent, ok := submitSent[r.Corr]; ok {
				wireRTT = append(wireRTT, us(e.at.Sub(sent)))
			}
		}
	}
	m["node.frames_per_tx"] = div(frames, txs)
	m["node.bytes_per_tx"] = div(bytes, txs)
	m["node.send_us_per_frame"] = div(us(sending), frames)
	m["node.submit_rtt_p50_us"] = median(wireRTT)
	m["node.submit_rtt_mean_us"] = mean(wireRTT)

	// Epochs, as the committee drove them.
	var tickMS, perEpoch []float64
	var tickWall time.Duration
	for _, t := range a.ticks {
		if !in(t.start) {
			continue
		}
		tickMS = append(tickMS, ms(t.took))
		perEpoch = append(perEpoch, float64(t.txs))
		tickWall += t.took
		if t.lost > 0 {
			m["node.lost_microblocks"]++
		}
	}
	p := quantiles(tickMS, 0.5, 0.99)
	m["node.tick_p50_ms"], m["node.tick_p99_ms"] = p[0], p[1]
	m["node.txs_per_epoch_p50"] = median(perEpoch)
	m["node.epochs"] = float64(len(tickMS))
	var toReceipt []float64
	for _, e := range capt.epochs {
		if visible, ok := a.watch.at(e.epoch); ok && in(e.sent) {
			toReceipt = append(toReceipt, ms(visible.Sub(e.sent)))
		}
	}
	m["node.broadcast_to_receipt_p50_ms"] = median(toReceipt)

	// Journal: every role's commits, and how far replicas trail the committee.
	var commitMS, snapshotMS, lag []float64
	dsDone := map[uint64]time.Time{}
	for _, e := range tr.commits {
		if e.role == "ds" {
			dsDone[e.epoch] = e.start.Add(e.took)
		}
	}
	for _, e := range tr.commits {
		if !in(e.start) {
			continue
		}
		commitMS = append(commitMS, ms(e.took))
		if (e.epoch+1)%snapshotEvery == 0 {
			snapshotMS = append(snapshotMS, ms(e.took))
		}
		if done, ok := dsDone[e.epoch]; ok && e.role != "ds" {
			lag = append(lag, ms(e.start.Add(e.took).Sub(done)))
		}
	}
	p = quantiles(commitMS, 0.5, 0.99)
	m["store.commit_p50_ms"], m["store.commit_p99_ms"] = p[0], p[1]
	m["store.commits_per_ktx"] = div(float64(len(commitMS))*1000, txs)
	m["store.snapshot_epoch_ms"] = median(snapshotMS)
	m["store.fsync_probe_us"] = us(probe)
	m["node.replica_lag_p50_ms"] = median(lag)

	m["core.provision_ms"] = ms(a.provision)
	m["node.cluster_start_ms"] = ms(a.clusterStart)

	// The replay's clocks, per transaction or per epoch of the timed window.
	rtx, rep := float64(st.txs), float64(st.epochs)
	m["wire.tx_encode_ns"] = div(float64(st.txEncode), rtx)
	m["wire.tx_decode_ns"] = div(float64(st.txDecode), rtx)
	m["wire.txbatch_encode_ns_per_tx"] = div(float64(st.batchEncode), rtx-float64(st.dsTxs))
	m["wire.txbatch_decode_ns_per_tx"] = div(float64(st.batchDecode), rtx-float64(st.dsTxs))
	m["wire.microblock_decode_ns_per_tx"] = div(float64(st.microDecode), rtx-float64(st.dsTxs))
	m["wire.microblock_encode_ns_per_tx"] = div(float64(st.microEncode), rtx-float64(st.dsTxs))
	m["wire.finalblock_encode_ns_per_tx"] = div(float64(st.finalEncode), rtx)
	m["wire.finalblock_decode_ns_per_tx"] = div(float64(st.finalDecode), rtx)
	m["wire.finalblock_bytes_per_tx"] = div(float64(st.finalBytes), rtx)
	m["dispatch.submit_ns_per_tx"] = div(float64(st.submit), rtx)
	m["dispatch.begin_epoch_us_per_tx"] = div(us(st.beginEpoch), rtx)
	m["dispatch.ds_share"] = div(float64(st.dsTxs), rtx)
	m["shard.execute_us_per_tx"] = div(us(st.execute), rtx-float64(st.dsTxs))
	m["shard.finalize_ms_per_epoch"] = div(ms(st.finalize), rep)
	m["shard.finalize_us_per_tx"] = div(us(st.finalize), rtx)
	m["shard.merge_ms_per_epoch"] = div(ms(st.merge), rep)
	m["shard.delta_entries_per_tx"] = div(float64(st.deltaEntries), rtx)
	m["shard.ds_exec_us_per_dstx"] = div(us(st.dsExec), float64(st.dsTxs))
	m["shard.apply_final_block_ms_per_epoch"] = div(ms(st.apply), rep)
	m["store.replay_commit_ms"] = div(ms(st.store), rep)
	m["ledger.execute_share"] = div(float64(st.execute), float64(st.pipeline()))
	m["ledger.unattributed_share"] = div(float64(tickWall-st.critical), float64(tickWall))

	// Allocator and collector, from the untraced attempt: the tracer's
	// kept frames would count as the cluster's.
	ptx := float64(po.committed)
	m["runtime.alloc_kb_per_tx"] = div(float64(plain.after.allocBytes-plain.before.allocBytes)/1e3, ptx)
	m["runtime.gc_cpu_share"] = div(plain.after.gcCPU-plain.before.gcCPU, plain.cpu.Seconds())
	m["runtime.heap_growth_kb_per_tx"] = div((float64(plain.liveHeap)-float64(plain.before.heapAlloc))/1e3, ptx)

	m["bench.trace_overhead_share"] = div(div(ms(a.cpu), txs), div(ms(plain.cpu), ptx)) - 1
	m["bench.traced_tps"] = div(txs, to.window.Seconds())
	m["bench.samples"] = float64(len(to.latencies))
	return withUnits(m, perLayer)
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(w io.Writer, workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-18s %-38s %14.4f %s\n", workload, name, metrics[name].Value, metrics[name].Unit)
	}
}
