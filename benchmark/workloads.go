package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/workload"
)

// loopKind is how load reaches the cluster.
type loopKind int

const (
	// openLoop sends on a Poisson schedule over JSON-RPC whatever the
	// cluster does, with a block producer ticking every blockInterval.
	openLoop loopKind = iota
	// closedLoop alternates one write and one read per client over
	// JSON-RPC with no think time, same block producer.
	closedLoop
	// epochLoop bypasses RPC and the ticker: the harness submits a batch
	// through Lookup.SubmitTx, drives DS.Tick, and waits for the lookup
	// to show the epoch.
	epochLoop
)

// clients is the number of load goroutines (and HTTP connections) of
// the RPC workloads: one per processor of the 2-core reference host.
const clients = 2

// warmEpochs run before the timed window of an epochLoop workload.
const warmEpochs = 2

// spec defines one benchmark workload. Sizes are per second of
// --seconds: run length is part of the definition, because several
// costs (receipt maps, contract state, journal) grow with it. The
// constants were sized once so that a run measures for about
// --seconds on the reference host, and are frozen.
type spec struct {
	name string
	gen  func() *workload.Workload
	kind loopKind

	txsPerSec    int     // openLoop: arrival rate; closedLoop: write+read pairs per second of --seconds
	epochTxs     int     // epochLoop: transactions per epoch
	epochsPerSec float64 // epochLoop: timed epochs per second of --seconds
}

// The five workloads. BENCHMARK.json says in a sentence why each is
// there; README.md says it at length.
var specs = []*spec{
	// ~100-tx blocks: per-epoch fixed costs and submit stalls dominate.
	{name: "rpc_open_ft", kind: openLoop, gen: workload.FTTransfer, txsPerSec: 2000},
	// Front-door capacity; reads share the DS actor loop with writes and epochs.
	{name: "rpc_closed_rw", kind: closedLoop, gen: workload.FTTransfer, txsPerSec: 3500},
	// Per-transaction pipeline cost; the 4000-tx epoch of BENCH_epoch.json.
	{name: "epoch_ft_sharded", kind: epochLoop, gen: workload.FTTransferDisjoint, epochTxs: 4000, epochsPerSec: 2},
	// Per-epoch cost that scales with state size: 100k accounts, a growing map.
	{name: "epoch_cf_bigstate", kind: epochLoop, gen: workload.CFDonate, epochTxs: 500, epochsPerSec: 5},
	// About two thirds of the transactions run on the DS committee.
	{name: "epoch_ipfs_ds", kind: epochLoop, gen: workload.ProofIPFSRegister, epochTxs: 2000, epochsPerSec: 1.6},
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// size is the work of one run: warm-up and timed transaction counts
// and, for epochLoop, the batch size.
type size struct {
	warm, timed int
	batch       int // epochLoop only
	users       int // workload population
}

// sizeFor turns --seconds into a run's work. scale shrinks everything,
// population included, for the smoke test; the benchmark runs at 1.
func (sp *spec) sizeFor(seconds float64, scale float64) size {
	users := int(math.Ceil(float64(sp.gen().Users) * scale))
	if users < 8 {
		users = 8
	}
	users += users % 2 // FT transfer disjoint pairs users up
	if sp.kind == epochLoop {
		batch := int(math.Ceil(float64(sp.epochTxs) * scale))
		epochs := int(math.Ceil(sp.epochsPerSec * seconds))
		return size{warm: warmEpochs * batch, timed: epochs * batch, batch: batch, users: users}
	}
	timed := int(math.Ceil(float64(sp.txsPerSec) * seconds * scale))
	// Warm-up opens the connections, sizes the heap and runs the first
	// few epochs; a tenth of a second of traffic is enough for that.
	warm := int(math.Ceil(float64(sp.txsPerSec) * scale / 10))
	return size{warm: warm, timed: timed, users: users}
}

// stream is a run's pre-generated input: every transaction, in
// generation order, and for the open loop each one's due offset from
// the start of its phase.
type stream struct {
	txs []*chain.Tx
	due []time.Duration // openLoop only; due[i] for i >= warm is relative to the window start
	// byClient lists each load goroutine's transactions. All of one
	// sender's transactions belong to one client and are sent in nonce
	// order, each after the previous reply: two clients racing one
	// sender's nonces would make a few transactions fail by the
	// generator's own doing.
	byClient [clients][]int
}

// generate draws the whole stream before anything is timed. The
// workload's seed sets its random source and the arrival schedule.
func generate(sp *spec, w *workload.Workload, env *workload.Env, sz size) *stream {
	n := sz.warm + sz.timed
	st := &stream{txs: make([]*chain.Tx, n)}
	for i := range st.txs {
		tx := w.Next(env)
		st.txs[i] = tx
		c := int(tx.From[len(tx.From)-1]) % clients
		st.byClient[c] = append(st.byClient[c], i)
	}
	if sp.kind == openLoop {
		// Exponential gaps: independent users make a Poisson process.
		rng := rand.New(rand.NewSource(w.Seed))
		st.due = make([]time.Duration, n)
		var at float64
		for i := range st.due {
			if i == sz.warm {
				at = 0
			}
			at += rng.ExpFloat64() / float64(sp.txsPerSec)
			st.due[i] = time.Duration(at * float64(time.Second))
		}
	}
	return st
}
