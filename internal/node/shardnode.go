package node

import (
	"errors"
	"fmt"
	"time"

	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
)

// ShardNode executes one shard's queues against a full replica of the
// network state, provisioned from the same deterministic genesis as
// the DS committee's canonical network, so after every applied
// FinalBlock the two agree bit-for-bit (the replica verifies the
// block's state root and reports shard.ErrStateDivergence if not).
//
// Executing a TxBatch does not mutate the replica: ExecuteShard
// produces a MicroBlock of deltas, and state only advances when the
// DS's FinalBlock comes back. Every FinalBlock, broadcast or fetched,
// is stashed by epoch and applied from the stash in epoch order. A
// node that misses one (dropped frame, or a restart that recovered to
// an older checkpoint, or none) sees the skew on the next frame for a
// future epoch and requests the missed range from the committee
// (MsgBlockRequest). The committee answers with the blocks from its
// journal or, when its journal no longer holds the first of them, with
// a state image of its live state: a run of frames, one record each,
// which the node gathers and applies whole once the trailer has arrived
// (node.state_images). A block that fails to apply (a corrupted frame
// that still decodes), or carries no state root to verify, is undone
// whole and fetched again, up to maxBlockRetries times in a row. The
// node executes no batch while it is behind. Err reports the first
// unrecoverable error: a block that kept failing, or a state image that
// failed once written.
//
// It is a handler over a runtime. It takes FinalBlocks, block
// responses and state images only from its committee (any other
// sender's is a receive error) and a TxBatch from any peer, since
// executing one leaves the replica as it was; the MicroBlock goes back
// to the sender. Over TCP a sender's name is what its envelope
// declares, so this stops misdirected and stale frames, not a process
// that lies about its name.
//
// With a fault plan (ShardFaults) the node loses its MicroBlocks where
// it seals them, as the throughput harness does: the plan's directive
// at (batch epoch, shard) crashes the node before it executes, drops
// the sealed block, or corrupts one byte of its frame, which the
// committee's frame checksum rejects; a straggler sends as usual.
type ShardNode struct {
	name   string
	shard  int
	rt     nodeRuntime
	net    *shard.Network
	ds     string
	faults *fault.Plan

	// The runtime's lock guards everything below. pendingBlocks holds
	// the FinalBlocks not yet applied, by epoch; pendingBatch/pendingFrom
	// the latest future TxBatch, executed once the replica reaches its
	// epoch; awaitTo (0 = none) the exclusive target epoch of the
	// outstanding block request — a later frame with a higher target
	// re-requests, so a dropped request or response frame delays
	// catch-up by an epoch instead of wedging it; failures counts the
	// blocks in a row that failed to apply; image holds the records of
	// the state image being received, from its header on (nil: none).
	pendingBlocks map[uint64]*shard.FinalBlock
	pendingBatch  *wire.TxBatch
	pendingFrom   string
	awaitTo       uint64
	failures      int
	image         []byte
	resyncs       *obs.Counter
	images        *obs.Counter
	lastErr       error
}

const (
	// pendingBlockCap bounds the stash of future FinalBlocks so a peer
	// fabricating far-future blocks cannot grow it without limit. The
	// block for the replica's own epoch is always taken.
	pendingBlockCap = 512
	// maxBlockRetries bounds how many times in a row the node re-fetches
	// a block that failed to apply before it gives up with a fatal Err.
	maxBlockRetries = 3
)

var errNoRoot = errors.New("node: final block carries no state root")

// ShardOption configures a ShardNode.
type ShardOption func(*shardConfig)

type shardConfig struct {
	reg    *obs.Registry
	rec    obs.Recorder
	faults *fault.Plan
}

// ShardObs attaches transport observability to the node's endpoint.
func ShardObs(reg *obs.Registry, rec obs.Recorder) ShardOption {
	return func(c *shardConfig) { c.reg, c.rec = reg, rec }
}

// ShardFaults makes the node lose the MicroBlocks plan loses (see
// ShardNode); a nil plan loses none.
func ShardFaults(plan *fault.Plan) ShardOption {
	return func(c *shardConfig) { c.faults = plan }
}

// NewShard builds a shard node executing shard s on the given replica,
// reporting to the DS peer named ds. Call Run to start it.
func NewShard(name string, s int, replica *shard.Network, ep Endpoint, ds string, opts ...ShardOption) *ShardNode {
	var c shardConfig
	for _, o := range opts {
		o(&c)
	}
	n := &ShardNode{name: name, shard: s, net: replica, ds: ds, faults: c.faults, pendingBlocks: make(map[uint64]*shard.FinalBlock)}
	reg := n.rt.init(n, ep, c.rec, c.reg)
	n.resyncs, n.images = reg.Counter("node.resyncs"), reg.Counter("node.state_images")
	return n
}

// Net exposes the replica network (for state-root assertions).
func (s *ShardNode) Net() *shard.Network { return s.net }

// Err returns the first unrecoverable replica error: a block that
// still failed to apply after maxBlockRetries fetches, or a state image
// that failed once written.
func (s *ShardNode) Err() error {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.lastErr
}

func (s *ShardNode) setErr(err error) {
	if s.lastErr == nil {
		s.lastErr = err
	}
}

// Run starts the node.
func (s *ShardNode) Run() { s.rt.run() }

// Close stops the node and detaches its endpoint; it is safe to call
// concurrently and more than once.
func (s *ShardNode) Close() { s.rt.close() }

func (s *ShardNode) start(effects, time.Time)            {}
func (s *ShardNode) deadline(effects, time.Time, uint64) {}
func (s *ShardNode) call(effects, time.Time, *call)      {}

func (s *ShardNode) frame(fx effects, _ time.Time, from string, typ wire.MsgType, payload []byte) bool {
	switch {
	case typ == wire.MsgTxBatch:
		batch, err := wire.DecodeTxBatch(payload)
		if err == nil {
			s.handleBatch(fx, from, batch)
		}
		return err == nil
	case from != s.ds:
		return false
	case typ == wire.MsgFinalBlock:
		fb, err := wire.DecodeFinalBlockState(payload)
		if err == nil {
			s.handleFinalBlock(fx, fb)
		}
		return err == nil
	case typ == wire.MsgBlockResponse:
		resp, err := wire.DecodeBlockResponse(payload)
		if err == nil {
			s.handleBlockResponse(fx, resp)
		}
		return err == nil
	case typ == wire.MsgStateImage:
		return s.imageRecord(fx, payload)
	}
	return false
}

func (s *ShardNode) handleBatch(fx effects, from string, batch *wire.TxBatch) {
	if batch.Shard != s.shard || batch.Epoch < s.net.Epoch {
		// Wrong shard, or a stale batch the DS already requeued past.
		return
	}
	s.pendingBatch, s.pendingFrom = batch, from
	if s.drainPending(fx) && batch.Epoch > s.net.Epoch {
		// The replica lags (it missed at least one FinalBlock): the
		// batch waits while it catches up. If the fetch completes before
		// the committee's collect timeout, the MicroBlock still lands
		// this epoch; otherwise the DS requeues the batch and the
		// replica rejoins on the next one.
		s.requestResync(fx, batch.Epoch)
	}
}

// execBatch executes a current-epoch batch and ships the MicroBlock,
// unless the fault plan loses it.
func (s *ShardNode) execBatch(fx effects, from string, batch *wire.TxBatch) {
	kind := s.faults.At(batch.Epoch, s.shard).Kind
	if kind == fault.CrashMidEpoch {
		return
	}
	mb, err := s.net.ExecuteShard(s.shard, batch.Txs)
	if err != nil {
		s.setErr(err)
		return
	}
	if kind == fault.DropMicroBlock {
		return
	}
	enc, err := wire.EncodeMicroBlock(mb)
	if err != nil {
		s.setErr(err)
		return
	}
	frame := wire.EncodeFrame(wire.MsgMicroBlock, enc)
	if kind == fault.CorruptDelta {
		frame[wire.HeaderLen] ^= 0xff
	}
	_ = fx.send(from, frame)
}

func (s *ShardNode) handleFinalBlock(fx effects, fb *shard.FinalBlock) {
	s.stash(fb)
	if s.drainPending(fx) && fb.Epoch > s.net.Epoch {
		// A future block: FinalBlocks in between were missed. Fetch
		// the gap; this one waits in the stash.
		s.requestResync(fx, fb.Epoch)
	}
}

// stash keeps a FinalBlock for drainPending to apply; a re-delivered
// old block is dropped.
func (s *ShardNode) stash(fb *shard.FinalBlock) {
	if fb.Epoch < s.net.Epoch || (fb.Epoch > s.net.Epoch && len(s.pendingBlocks) >= pendingBlockCap) {
		return
	}
	s.pendingBlocks[fb.Epoch] = fb
}

// requestResync asks the committee for FinalBlocks [net.Epoch, target)
// unless an outstanding request already covers the range.
func (s *ShardNode) requestResync(fx effects, target uint64) {
	if s.awaitTo >= target {
		return
	}
	s.awaitTo = target
	s.resyncs.Inc()
	payload := wire.EncodeBlockRequest(&wire.BlockRequest{From: s.net.Epoch, To: target})
	_ = fx.send(s.ds, wire.EncodeFrame(wire.MsgBlockRequest, payload))
}

func (s *ShardNode) handleBlockResponse(fx effects, resp *wire.BlockResponse) {
	before := s.net.Epoch
	for _, fb := range resp.Blocks {
		s.stash(fb)
	}
	if !s.drainPending(fx) {
		return
	}
	if s.awaitTo > 0 {
		if s.net.Epoch >= s.awaitTo || resp.Head <= resp.From {
			// Caught up — or the committee says we were never behind
			// (a fabricated future block): stand down so the next real
			// skew re-requests from scratch.
			s.awaitTo = 0
		} else if s.net.Epoch > before {
			// Partial response (the committee caps response size):
			// request the remainder.
			target := s.awaitTo
			s.awaitTo = 0
			s.requestResync(fx, target)
		}
	}
}

// imageRecord takes one frame of a state image: a header opens the
// image, dropping any partial one before it, and the trailer closes it
// and hands the whole run to handleImage. A record with no image open
// is a receive error.
func (s *ShardNode) imageRecord(fx effects, record []byte) bool {
	typ := wire.FrameMsgType(record)
	switch {
	case typ == wire.MsgSnapshotHeader:
		s.image = append(s.image[:0], record...)
	case s.image == nil:
		return false
	case typ == wire.MsgSnapshotEnd:
		image := append(s.image, record...)
		s.image = nil
		return s.handleImage(fx, image)
	default:
		s.image = append(s.image, record...)
	}
	return true
}

// handleImage applies a state image of a later epoch than the
// replica's and goes on from there as from a block response: the
// stashed blocks and batch at or past the image's epoch apply and run,
// and what is still missing of the outstanding request is requested
// again. An image at or below the replica's epoch is ignored, and one
// that does not parse is a receive error; one that fails once written
// is fatal, since the whole state has no undo.
func (s *ShardNode) handleImage(fx effects, image []byte) bool {
	applied, err := store.ApplyImage(s.net, image)
	switch {
	case !applied:
		return err == nil
	case err != nil:
		s.setErr(fmt.Errorf("node: %s: state image: %w", s.name, err))
		return true
	}
	s.images.Inc()
	target := s.awaitTo
	s.failures, s.awaitTo = 0, 0
	if s.drainPending(fx) && target > s.net.Epoch {
		s.requestResync(fx, target)
	}
	return true
}

// drainPending applies stashed FinalBlocks in epoch order — the one
// place a block is applied — and executes the stashed batch once the
// replica is at its epoch, the one place a batch is executed. A block
// that fails to apply, or carries no root to verify, leaves the
// replica where it was: drainPending drops it, fetches its epoch again
// and reports false, or, after maxBlockRetries such failures in a row,
// records the fatal Err.
func (s *ShardNode) drainPending(fx effects) bool {
	for fb := s.pendingBlocks[s.net.Epoch]; fb != nil; fb = s.pendingBlocks[s.net.Epoch] {
		delete(s.pendingBlocks, fb.Epoch)
		err := errNoRoot
		if fb.StateRoot != "" {
			err = s.net.ApplyFinalBlock(fb)
		}
		if err != nil {
			// A block that applied but was not journaled has moved the
			// replica on: that is fatal at once.
			if s.failures++; s.failures > maxBlockRetries || s.net.Epoch != fb.Epoch {
				s.setErr(err)
				return false
			}
			s.awaitTo = 0
			s.requestResync(fx, fb.Epoch+1)
			return false
		}
		s.failures = 0
	}
	for e := range s.pendingBlocks {
		if e < s.net.Epoch {
			delete(s.pendingBlocks, e)
		}
	}
	if b := s.pendingBatch; b != nil && b.Epoch <= s.net.Epoch {
		// Current, or older: a batch the DS requeued long ago.
		s.pendingBatch = nil
		if b.Epoch == s.net.Epoch {
			s.execBatch(fx, s.pendingFrom, b)
		}
	}
	return true
}
