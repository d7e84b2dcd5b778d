package main

import (
	"fmt"
	"path/filepath"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// capturedEpoch is one epoch's traffic at the committee's endpoint.
type capturedEpoch struct {
	epoch   uint64
	batches [numShards][]byte // TxBatch payloads the committee sent
	micro   [numShards][]byte // MicroBlock payloads it received
	final   []byte            // FinalBlock payload it broadcast
	sent    time.Time         // when the broadcast to the lookup began
}

// capture is a traced run's input to the replay.
type capture struct {
	submits [][]byte // Submit payloads in the order the committee received them
	epochs  []*capturedEpoch
}

// captured sorts the committee's kept frames into epochs.
func (t *tracer) captured() (*capture, error) {
	c := &capture{}
	byEpoch := map[uint64]*capturedEpoch{}
	at := func(epoch uint64) *capturedEpoch {
		e := byEpoch[epoch]
		if e == nil {
			e = &capturedEpoch{epoch: epoch}
			byEpoch[epoch] = e
			c.epochs = append(c.epochs, e)
		}
		return e
	}
	for _, ev := range t.frames {
		if ev.role != "ds" || ev.frame == nil {
			continue
		}
		_, payload, _, err := wire.DecodeFrame(ev.frame)
		if err != nil {
			return nil, fmt.Errorf("captured %s frame: %w", ev.typ, err)
		}
		switch ev.typ {
		case wire.MsgSubmit:
			c.submits = append(c.submits, payload)
		case wire.MsgTxBatch:
			b, err := wire.DecodeTxBatch(payload)
			if err != nil {
				return nil, fmt.Errorf("captured tx batch: %w", err)
			}
			at(b.Epoch).batches[b.Shard] = payload
		case wire.MsgMicroBlock:
			mb, err := wire.DecodeMicroBlock(payload)
			if err != nil {
				return nil, fmt.Errorf("captured micro block: %w", err)
			}
			at(mb.Epoch).micro[mb.Shard] = payload
		case wire.MsgFinalBlock:
			fb, err := wire.DecodeFinalBlock(payload)
			if err != nil {
				return nil, fmt.Errorf("captured final block: %w", err)
			}
			e := at(fb.Epoch)
			e.final, e.sent = payload, ev.at
		}
	}
	// The committee sends an epoch's batches before anything else of
	// that epoch, so first appearance is already ascending. The first
	// epoch is wherever the workload's setup transactions left genesis.
	for i, e := range c.epochs {
		if e.epoch != c.epochs[0].epoch+uint64(i) || e.final == nil {
			return nil, fmt.Errorf("capture is not a gap-free run of sealed epochs at index %d (epoch %d)", i, e.epoch)
		}
	}
	return c, nil
}

// stages are the replay's clock: time spent in each layer's public
// functions, one call at a time on one goroutine, over the timed
// epochs.
type stages struct {
	txEncode, txDecode             time.Duration
	submit, beginEpoch             time.Duration
	batchEncode, batchDecode       time.Duration
	execute                        time.Duration // all shards
	microEncode, microDecode       time.Duration
	finalize, merge, dsExec, store time.Duration // merge, dsExec and store are inside finalize
	finalEncode, finalDecode       time.Duration
	apply                          time.Duration // one replica
	// critical is the part a tick has to wait for when every shard
	// has a processor to itself: the slowest shard, not their sum.
	critical time.Duration

	epochs, txs, dsTxs, deltaEntries, finalBytes int
}

// pipeline is every replayed stage once, execute for all shards and
// apply for one replica.
func (s *stages) pipeline() time.Duration {
	return s.txDecode + s.submit + s.beginEpoch + s.batchEncode + s.batchDecode + s.execute +
		s.microEncode + s.microDecode + s.finalize + s.finalEncode + s.finalDecode + s.apply
}

// replay feeds the captured epochs through each layer's public
// functions on spare genesis networks: the committee side (SubmitTx in
// arrival order, BeginEpoch, FinalizeEpoch over the captured
// MicroBlocks, with a real journal), the shard side (decode batch,
// ExecuteShard, encode MicroBlock) and the replica side (decode and
// apply the FinalBlock). Every replayed FinalBlock must carry the
// captured state root. timed says which epochs count towards the
// stage clocks; base is the zero of the returned spans.
func replay(w *workload.Workload, c *capture, timed map[uint64]bool, dir string, base time.Time) (*stages, []span, error) {
	collector := obs.NewStageCollector()
	committee, err := workload.Provision(w, true, shard.WithShards(numShards), shard.WithRecorder(collector))
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(filepath.Join(dir, "ds"), store.WithSnapshotEvery(snapshotEvery))
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	if err := st.Recover(committee.Net); err != nil {
		return nil, nil, err
	}
	journal := &roleStore{role: "replay-ds", inner: st, tr: &tracer{}}
	committee.Net.AttachStateStore(journal)
	replica, err := workload.Provision(w, true, shard.WithShards(numShards))
	if err != nil {
		return nil, nil, err
	}

	total := &stages{}
	var spans []span
	next := 0 // next captured submission to hand to the committee
	for _, e := range c.epochs {
		// Warm-up epochs are replayed for their state but timed into a
		// throwaway clock.
		s := &stages{}
		if timed[e.epoch] {
			s = total
		}
		id := fmt.Sprintf("epoch:%d", e.epoch)
		stage := func(name string, d *time.Duration, f func() error) (time.Duration, error) {
			start := time.Now()
			err := f()
			took := time.Since(start)
			*d += took
			if err != nil {
				return took, fmt.Errorf("replay epoch %d %s: %w", e.epoch, name, err)
			}
			if timed[e.epoch] {
				spans = append(spans, span{Name: "replay." + name, ID: id, Role: "replay", Start: int64(start.Sub(base)), End: int64(start.Add(took).Sub(base))})
			}
			return took, nil
		}

		captured, err := wire.DecodeFinalBlock(e.final)
		if err != nil {
			return nil, nil, err
		}
		// Epoch membership: ids are assigned in arrival order, so the
		// epoch took every submission up to its highest receipt.
		var last uint64
		for _, r := range captured.Receipts {
			if r.TxID > last {
				last = r.TxID
			}
		}
		var batch []*chain.Tx
		for id := committee.Net.Checkpoint().NextTxID; next < len(c.submits) && len(captured.Receipts) > 0 && id <= last; id++ {
			sub, err := wire.DecodeSubmit(c.submits[next])
			if err != nil {
				return nil, nil, err
			}
			batch = append(batch, sub.Tx)
			next++
		}
		encoded := make([][]byte, len(batch))
		if _, err := stage("tx_encode", &s.txEncode, func() (err error) {
			for i, tx := range batch {
				if encoded[i], err = wire.EncodeTx(tx); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		if _, err := stage("tx_decode", &s.txDecode, func() (err error) {
			for i, b := range encoded {
				if batch[i], err = wire.DecodeTx(b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		if _, err := stage("submit", &s.submit, func() error {
			for _, tx := range batch {
				if _, err := committee.Net.SubmitTx(tx); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}

		var run *shard.EpochRun
		begin, _ := stage("begin_epoch", &s.beginEpoch, func() error {
			run = committee.Net.BeginEpoch()
			run.CollectFinalBlock()
			return nil
		})
		critical := begin
		for sh, q := range run.Queues() {
			took, err := stage("txbatch_encode", &s.batchEncode, func() error {
				_, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: e.epoch, Shard: sh, Txs: q})
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			critical += took
			s.txs += len(q)
		}
		s.txs += len(run.DSQueue())
		s.dsTxs += len(run.DSQueue())

		var slowest time.Duration
		blocks := make([]*shard.MicroBlock, numShards)
		for sh := 0; sh < numShards; sh++ {
			if e.batches[sh] == nil || e.micro[sh] == nil {
				return nil, nil, fmt.Errorf("replay epoch %d: shard %d's batch or MicroBlock was not captured", e.epoch, sh)
			}
			var b *wire.TxBatch
			var mb *shard.MicroBlock
			dec, err := stage("txbatch_decode", &s.batchDecode, func() (err error) {
				b, err = wire.DecodeTxBatch(e.batches[sh])
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			exec, err := stage("execute", &s.execute, func() (err error) {
				mb, err = replica.Net.ExecuteShard(sh, b.Txs)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			enc, err := stage("microblock_encode", &s.microEncode, func() error {
				_, err := wire.EncodeMicroBlock(mb)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			if d := dec + exec + enc; d > slowest {
				slowest = d
			}
			took, err := stage("microblock_decode", &s.microDecode, func() (err error) {
				blocks[sh], err = wire.DecodeMicroBlock(e.micro[sh])
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			critical += took
		}
		critical += slowest

		var fb *shard.FinalBlock
		took, err := stage("finalize", &s.finalize, func() (err error) {
			_, fb, err = committee.Net.FinalizeEpoch(run, blocks)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		critical += took
		if fb.StateRoot != captured.StateRoot {
			return nil, nil, fmt.Errorf("replay epoch %d: state root %s, captured %s", e.epoch, fb.StateRoot, captured.StateRoot)
		}
		sum := collector.Last()
		s.merge += sum.Merge
		s.dsExec += sum.DSExec
		s.deltaEntries += sum.DeltaEntries
		s.store += journal.tr.commits[len(journal.tr.commits)-1].took

		took, err = stage("finalblock_encode", &s.finalEncode, func() error {
			b, err := wire.EncodeFinalBlock(fb)
			s.finalBytes += len(b)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		critical += took
		if _, err := stage("finalblock_decode", &s.finalDecode, func() (err error) {
			fb, err = wire.DecodeFinalBlock(e.final)
			return err
		}); err != nil {
			return nil, nil, err
		}
		if _, err := stage("apply_final_block", &s.apply, func() error {
			return replica.Net.ApplyFinalBlock(fb)
		}); err != nil {
			return nil, nil, err
		}
		s.critical += critical
		s.epochs++
	}
	if next != len(c.submits) {
		return nil, nil, fmt.Errorf("replay: %d captured submissions belong to no sealed epoch", len(c.submits)-next)
	}
	return total, spans, nil
}
