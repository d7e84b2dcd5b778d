package node

import (
	"fmt"
	"sync"

	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// ShardNode executes one shard's queues against a full replica of the
// network state. The replica is provisioned from the same
// deterministic genesis as the DS committee's canonical network, so
// after every applied FinalBlock the two agree bit-for-bit (the
// replica verifies the block's state root and reports
// shard.ErrStateDivergence if not).
//
// Executing a TxBatch does not mutate the replica: ExecuteShard
// produces a MicroBlock of deltas, and state only advances when the
// DS's FinalBlock comes back. Every FinalBlock, broadcast or fetched,
// is stashed by epoch and applied from the stash in epoch order. A
// node that misses one (dropped frame, or a restart that recovered to
// an older checkpoint) sees the skew on the next frame for a future
// epoch and catches up live: it requests the missed range from the
// committee (MsgBlockRequest). A block that fails to apply (a
// corrupted frame that still decodes) is undone whole and fetched
// again, up to maxBlockRetries times in a row. The node executes no
// batch while it is behind. Err reports the first unrecoverable error:
// a block that kept failing, or a range the committee cannot serve.
//
// With a fault plan (ShardFaults) the node loses its MicroBlocks where
// it seals them, as the throughput harness does: the plan's directive
// at (batch epoch, shard) crashes the node before it executes, drops
// the sealed block, or corrupts one byte of its frame, which the
// committee's frame checksum rejects; a straggler sends as usual.
type ShardNode struct {
	name   string
	shard  int
	ep     Endpoint
	net    *shard.Network
	ds     string
	m      *linkMetrics
	faults *fault.Plan

	// Resync state, touched only by the actor goroutine. pendingBlocks
	// holds the FinalBlocks not yet applied, by epoch;
	// pendingBatch/pendingFrom the latest future TxBatch, executed once
	// the replica reaches its epoch; awaitTo (0 = none) the exclusive
	// target epoch of the outstanding block request — a later frame
	// with a higher target re-requests, so a dropped request or
	// response frame delays catch-up by an epoch instead of wedging it;
	// failures counts the blocks in a row that failed to apply.
	pendingBlocks map[uint64]*shard.FinalBlock
	pendingBatch  *wire.TxBatch
	pendingFrom   string
	awaitTo       uint64
	failures      int
	resyncs       *obs.Counter

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu      sync.Mutex
	lastErr error
}

// pendingBlockCap bounds the stash of future FinalBlocks so a peer
// fabricating far-future blocks cannot grow it without limit. The
// block for the replica's own epoch is always taken.
const pendingBlockCap = 512

// maxBlockRetries bounds how many times in a row the node re-fetches a
// block that failed to apply before it gives up with a fatal Err.
const maxBlockRetries = 3

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

// NewShard builds a shard-node actor executing shard index s on the
// given replica network, reporting to the DS peer named ds. Call Run
// to start it.
func NewShard(name string, s int, replica *shard.Network, ep Endpoint, ds string, opts ...ShardOption) *ShardNode {
	var c shardConfig
	for _, o := range opts {
		o(&c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	lep := Instrument(ep, c.rec, c.reg).(*link)
	return &ShardNode{
		name:          name,
		shard:         s,
		ep:            lep,
		net:           replica,
		ds:            ds,
		m:             lep.m,
		faults:        c.faults,
		pendingBlocks: make(map[uint64]*shard.FinalBlock),
		resyncs:       c.reg.Counter("node.resyncs"),
		quit:          make(chan struct{}),
	}
}

// Net exposes the replica network (for state-root assertions in
// tests).
func (s *ShardNode) Net() *shard.Network { return s.net }

// Err returns the first unrecoverable replica error: a block that
// still failed to apply after maxBlockRetries fetches, or an
// unservable catch-up gap.
func (s *ShardNode) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *ShardNode) setErr(err error) {
	s.mu.Lock()
	if s.lastErr == nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// Run starts the actor loop.
func (s *ShardNode) Run() {
	s.wg.Add(1)
	go s.loop()
}

// Close stops the actor and detaches its endpoint. Safe to call
// concurrently and more than once.
func (s *ShardNode) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.ep.Close()
	s.wg.Wait()
}

func (s *ShardNode) loop() {
	defer s.wg.Done()
	for {
		from, frame, err := s.ep.Recv()
		if err != nil {
			return
		}
		typ, payload, _, err := wire.DecodeFrame(frame)
		if err != nil {
			s.m.recvErrors.Inc()
			continue
		}
		switch typ {
		case wire.MsgTxBatch:
			s.handleBatch(from, payload)
		case wire.MsgFinalBlock:
			s.handleFinalBlock(payload)
		case wire.MsgBlockResponse:
			s.handleBlockResponse(payload)
		default:
			s.m.recvErrors.Inc()
		}
	}
}

func (s *ShardNode) handleBatch(from string, payload []byte) {
	batch, err := wire.DecodeTxBatch(payload)
	if err != nil {
		s.m.recvErrors.Inc()
		return
	}
	if batch.Shard != s.shard || batch.Epoch < s.net.Epoch {
		// Wrong shard, or a stale batch the DS already requeued past.
		return
	}
	s.pendingBatch, s.pendingFrom = batch, from
	if s.drainPending() && batch.Epoch > s.net.Epoch {
		// The replica lags (it missed at least one FinalBlock): the
		// batch waits while it catches up. If the fetch completes before
		// the committee's collect timeout, the MicroBlock still lands
		// this epoch; otherwise the DS requeues the batch and the
		// replica rejoins on the next one.
		s.requestResync(batch.Epoch)
	}
}

// execBatch executes a current-epoch batch and ships the MicroBlock,
// unless the fault plan loses it.
func (s *ShardNode) execBatch(from string, batch *wire.TxBatch) {
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
	_ = s.ep.Send(from, frame)
}

func (s *ShardNode) handleFinalBlock(payload []byte) {
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		s.m.recvErrors.Inc()
		return
	}
	s.stash(fb)
	if s.drainPending() && fb.Epoch > s.net.Epoch {
		// A future block: FinalBlocks in between were missed. Fetch
		// the gap; this one waits in the stash.
		s.requestResync(fb.Epoch)
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
func (s *ShardNode) requestResync(target uint64) {
	if s.awaitTo >= target {
		return
	}
	s.awaitTo = target
	s.resyncs.Inc()
	payload := wire.EncodeBlockRequest(&wire.BlockRequest{From: s.net.Epoch, To: target})
	_ = s.ep.Send(s.ds, wire.EncodeFrame(wire.MsgBlockRequest, payload))
}

func (s *ShardNode) handleBlockResponse(payload []byte) {
	resp, err := wire.DecodeBlockResponse(payload)
	if err != nil {
		s.m.recvErrors.Inc()
		return
	}
	before := s.net.Epoch
	for _, fb := range resp.Blocks {
		s.stash(fb)
	}
	if !s.drainPending() {
		return
	}
	if resp.Head > resp.From && resp.From == s.net.Epoch {
		// The committee is ahead of us but served nothing: the range
		// was compacted past its journal and ring. No live path back —
		// this replica needs a state-directory recovery.
		s.setErr(fmt.Errorf("node: %s: resync epochs [%d, %d) unservable by committee at epoch %d",
			s.name, resp.From, s.awaitTo, resp.Head))
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
			s.requestResync(target)
		}
	}
}

// drainPending applies stashed FinalBlocks in epoch order — the one
// place a block is applied — and executes the stashed batch once the
// replica is at its epoch, the one place a batch is executed. A block
// that fails to apply leaves the replica where it was: drainPending
// drops it, fetches its epoch again and reports false, or, after
// maxBlockRetries such failures in a row, records the fatal Err.
func (s *ShardNode) drainPending() bool {
	for fb := s.pendingBlocks[s.net.Epoch]; fb != nil; fb = s.pendingBlocks[s.net.Epoch] {
		delete(s.pendingBlocks, fb.Epoch)
		if err := s.net.ApplyFinalBlock(fb); err != nil {
			// A block that applied but was not journaled has moved the
			// replica on: that is fatal at once.
			if s.failures++; s.failures > maxBlockRetries || s.net.Epoch != fb.Epoch {
				s.setErr(err)
				return false
			}
			s.awaitTo = 0
			s.requestResync(fb.Epoch + 1)
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
			s.execBatch(s.pendingFrom, b)
		}
	}
	return true
}
