package node

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// DS is the DS-committee actor: it owns the canonical shard.Network,
// drives epochs over the wire, and answers lookup-node submissions and
// state queries. One goroutine receives every frame and handles it
// under the actor's mutex, which each step of Tick takes too.
//
// An epoch is a state with a deadline: Tick dispatches (BeginEpoch),
// ships each shard its TxBatch and opens the collect state; the
// handler files MicroBlocks into it until every shard has answered or
// the collect timeout fires; Tick then finalizes (merge + its own run)
// and broadcasts the sealed FinalBlock to every lookup, then to every
// shard node. A shard whose MicroBlock never arrives — not sealed,
// dropped, corrupted, or late — is a nil block to FinalizeEpoch, the
// pipeline's one kind of loss: its batch is requeued, and after
// shard.FaultEscalation such epochs in a row its traffic runs on the
// committee until it answers again. A MicroBlock is taken only from
// the node the committee sent that shard's batch to.
type DS struct {
	name    string
	ep      Endpoint
	net     *shard.Network
	shards  []string
	timeout time.Duration
	m       *linkMetrics
	source  BlockSource

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// tick serializes Ticks: one epoch is in flight at a time.
	tick sync.Mutex

	// mu guards the network and everything below; the receive
	// goroutine holds it for each frame, Tick for each of its steps.
	mu sync.Mutex
	// collect is the epoch in flight, nil between epochs.
	collect *collecting
	// recent is a ring of the latest committed FinalBlocks' sealed
	// payloads (contiguous ascending epochs) — the bytes that were
	// journaled and broadcast, kept as they are and shipped as they are —
	// the primary source for replica catch-up requests; the BlockSource
	// covers epochs that predate this process.
	recent  []sealedBlock
	lookups map[string]bool
}

// collecting is the collect state of one epoch: the dispatched run,
// the MicroBlocks received so far by shard, how many are missing, and
// a channel closed when none is.
type collecting struct {
	run     *shard.EpochRun
	blocks  []*shard.MicroBlock
	missing int
	full    chan struct{}
}

// BlockSource serves committed FinalBlocks by epoch range [from, to)
// for replica catch-up; *store.Store implements it over the epoch
// journal. The result may be a sub-range (compaction trims the old
// end), but present blocks are contiguous ascending.
type BlockSource interface {
	Blocks(from, to uint64) ([]*shard.FinalBlock, error)
}

// recentBlockCap bounds the in-memory catch-up ring. A replica that
// fell further behind than this (and past the journal's compaction
// horizon) cannot be served and must recover from a state directory.
const recentBlockCap = 256

// maxBlocksPerResponse caps how many FinalBlocks ride in one
// MsgBlockResponse, so a far-behind replica's request cannot produce
// an oversized frame; the replica re-requests the remainder.
const maxBlocksPerResponse = 64

// sealedBlock is one committed FinalBlock as its wire payload.
type sealedBlock struct {
	epoch   uint64
	payload []byte
}

// TickResult reports one driven epoch.
type TickResult struct {
	Stats *shard.EpochStats
	Root  string
	Err   error
}

// DSOption configures a DS actor.
type DSOption func(*dsConfig)

type dsConfig struct {
	timeout time.Duration
	reg     *obs.Registry
	rec     obs.Recorder
	lookups []string
	source  BlockSource
}

// DSCollectTimeout bounds how long the committee waits for MicroBlocks
// each epoch before declaring the stragglers transport-lost (default
// 2s; fault tests shorten it).
func DSCollectTimeout(d time.Duration) DSOption {
	return func(c *dsConfig) { c.timeout = d }
}

// DSObs attaches transport observability: frame trace events on rec
// and wire.* metrics on reg.
func DSObs(reg *obs.Registry, rec obs.Recorder) DSOption {
	return func(c *dsConfig) { c.reg, c.rec = reg, rec }
}

// DSLookups pre-registers lookup nodes for FinalBlock broadcasts.
// Lookups are also learned dynamically: any peer that says hello as a
// lookup, submits, or queries gets future broadcasts.
func DSLookups(names ...string) DSOption {
	return func(c *dsConfig) { c.lookups = names }
}

// DSBlockSource lets the committee serve catch-up requests for epochs
// older than its in-memory ring — typically the committee's own
// *store.Store, whose journal holds everything since the last
// snapshot. Without one, only the ring is servable.
func DSBlockSource(src BlockSource) DSOption {
	return func(c *dsConfig) { c.source = src }
}

// NewDS builds the committee actor around an existing canonical
// network (compose shard.NewNetwork(opts...) for its configuration —
// shard count, gas limits, recorders). shardNames maps shard index to
// the peer name executing that shard's queues.
// Call Run to start it.
func NewDS(name string, net *shard.Network, ep Endpoint, shardNames []string, opts ...DSOption) (*DS, error) {
	if len(shardNames) != net.Config().NumShards {
		return nil, fmt.Errorf("node: %d shard names for %d shards", len(shardNames), net.Config().NumShards)
	}
	c := dsConfig{timeout: 2 * time.Second}
	for _, o := range opts {
		o(&c)
	}
	lep := Instrument(ep, c.rec, c.reg).(*link)
	d := &DS{
		name:    name,
		ep:      lep,
		net:     net,
		shards:  append([]string(nil), shardNames...),
		timeout: c.timeout,
		m:       lep.m,
		source:  c.source,
		quit:    make(chan struct{}),
		lookups: make(map[string]bool),
	}
	for _, l := range c.lookups {
		d.lookups[l] = true
	}
	return d, nil
}

// Net exposes the canonical network (read-only use: state roots,
// snapshots; the actor mutates it under its mutex).
func (d *DS) Net() *shard.Network { return d.net }

// Run starts the receive goroutine: one frame at a time, each handled
// under the actor's mutex.
func (d *DS) Run() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			from, frame, err := d.ep.Recv()
			if err != nil {
				return
			}
			d.mu.Lock()
			d.handleFrame(from, frame)
			d.mu.Unlock()
		}
	}()
}

// Close stops the actor and detaches its endpoint; a Tick waiting for
// MicroBlocks returns ErrTransportClosed. Safe to call concurrently
// and more than once.
func (d *DS) Close() {
	d.closeOnce.Do(func() { close(d.quit) })
	d.ep.Close()
	d.wg.Wait()
}

// Tick drives one epoch and reports its outcome: beginEpoch, then a
// wait for every MicroBlock, the collect timeout or Close, then
// finishEpoch. Safe to call from any goroutine; concurrent Ticks run
// one after another.
func (d *DS) Tick() TickResult {
	d.tick.Lock()
	defer d.tick.Unlock()
	select {
	case <-d.quit:
		return TickResult{Err: ErrTransportClosed} // dispatch nothing on a closed committee
	default:
	}
	d.mu.Lock()
	c, err := d.beginEpoch()
	d.mu.Unlock()
	if err != nil {
		return TickResult{Err: err}
	}
	timer := time.NewTimer(d.timeout)
	defer timer.Stop()
	select {
	case <-c.full:
	case <-timer.C: // stragglers are transport-lost; FinalizeEpoch requeues them
	case <-d.quit:
		return TickResult{Err: ErrTransportClosed}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.finishEpoch(c)
}

// beginEpoch dispatches the next epoch, ships each shard its TxBatch
// and opens the collect state.
func (d *DS) beginEpoch() (*collecting, error) {
	run := d.net.BeginEpoch()
	run.CollectFinalBlock()
	queues := run.Queues()
	for s, q := range queues {
		payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: run.Epoch(), Shard: s, Txs: q})
		if err != nil {
			return nil, fmt.Errorf("encode tx batch for shard %d: %w", s, err)
		}
		d.send(d.shards[s], wire.MsgTxBatch, payload)
	}
	d.collect = &collecting{
		run:     run,
		blocks:  make([]*shard.MicroBlock, len(queues)),
		missing: len(queues),
		full:    make(chan struct{}),
	}
	return d.collect, nil
}

// finishEpoch closes the collect state, finalizes the epoch with the
// MicroBlocks that arrived, and broadcasts the FinalBlock.
func (d *DS) finishEpoch(c *collecting) TickResult {
	d.collect = nil
	stats, fb, err := d.net.FinalizeEpoch(c.run, c.blocks)
	if err != nil {
		return TickResult{Err: err}
	}
	if fb != nil {
		// The block's bytes exist already when a journal is attached
		// (FinalizeEpoch sealed it there); either way this is the one
		// payload, framed once for every recipient.
		payload, err := wire.SealedFinalBlock(fb)
		if err != nil {
			return TickResult{Err: fmt.Errorf("encode final block: %w", err)}
		}
		d.recent = append(d.recent, sealedBlock{fb.Epoch, payload})
		if len(d.recent) > recentBlockCap {
			d.recent = append(d.recent[:0], d.recent[len(d.recent)-recentBlockCap:]...)
		}
		// Lookups first: they are what clients read, and the replicas'
		// applies would otherwise take every CPU before the lookups'
		// receipts are filed.
		frame := wire.EncodeFrame(wire.MsgFinalBlock, payload)
		for l := range d.lookups {
			_ = d.ep.Send(l, frame)
		}
		for _, s := range d.shards {
			_ = d.ep.Send(s, frame)
		}
	}
	return TickResult{Stats: stats, Root: d.net.StateRoot()}
}

// handleFrame decodes and handles one received frame; the caller holds
// d.mu. A MicroBlock lands in the collect state of the epoch in
// flight if its shard's own node sent it; outside an epoch it is stale
// (a post-timeout arrival) and is dropped.
func (d *DS) handleFrame(from string, frame []byte) {
	typ, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		d.m.recvErrors.Inc()
		return
	}
	switch typ {
	case wire.MsgSubmit:
		s, err := wire.DecodeSubmit(payload)
		if err != nil {
			d.m.recvErrors.Inc()
			return
		}
		d.lookups[from] = true
		resp := &wire.SubmitResp{Corr: s.Corr, ID: d.net.Submit(s.Tx)}
		d.send(from, wire.MsgSubmitResp, wire.EncodeSubmitResp(resp))
	case wire.MsgStateQuery:
		q, err := wire.DecodeStateQuery(payload)
		if err != nil {
			d.m.recvErrors.Inc()
			return
		}
		d.lookups[from] = true
		payload, err := wire.EncodeStateResp(d.stateResp(q))
		if err != nil {
			payload, _ = wire.EncodeStateResp(&wire.StateResp{Corr: q.Corr, Err: err.Error()})
		}
		d.send(from, wire.MsgStateResp, payload)
	case wire.MsgMicroBlock:
		c := d.collect
		if c == nil {
			return // stale: arrived after the collect timeout
		}
		mb, err := wire.DecodeMicroBlock(payload)
		if err != nil {
			d.m.recvErrors.Inc()
			return
		}
		if mb.Shard < 0 || mb.Shard >= len(c.blocks) || from != d.shards[mb.Shard] {
			d.m.recvErrors.Inc() // only a shard's own node speaks for it
			return
		}
		if mb.Epoch != d.net.Epoch || c.blocks[mb.Shard] != nil {
			return
		}
		c.blocks[mb.Shard] = mb
		if c.missing--; c.missing == 0 {
			close(c.full)
		}
	case wire.MsgHello:
		h, err := wire.DecodeHello(payload)
		if err != nil {
			d.m.recvErrors.Inc()
			return
		}
		if h.Role == "lookup" {
			d.lookups[from] = true
		}
	case wire.MsgBlockRequest:
		q, err := wire.DecodeBlockRequest(payload)
		if err != nil {
			d.m.recvErrors.Inc()
			return
		}
		d.serveBlocks(from, q)
	default:
		d.m.recvErrors.Inc()
	}
}

// serveBlocks answers a replica catch-up request: the contiguous run
// of committed FinalBlocks starting at q.From, clipped to the head,
// the response size cap, and what the ring + block source still hold.
// Head lets the requester distinguish "you are not actually behind"
// (Head <= From) from "behind but unservable" (Head > From, no
// blocks).
func (d *DS) serveBlocks(to string, q *wire.BlockRequest) {
	head := d.net.Epoch // epochs < head are committed
	end := q.To
	if end > head {
		end = head
	}
	if end > q.From+maxBlocksPerResponse {
		end = q.From + maxBlocksPerResponse
	}
	var blocks [][]byte
	if end > q.From {
		blocks = d.blocksFor(q.From, end)
	}
	d.send(to, wire.MsgBlockResponse, wire.AppendBlockResponse(nil, q.From, head, blocks))
}

// blocksFor collects the sealed payloads of the contiguous run of
// FinalBlocks for epochs [from, to), consulting the block source for
// epochs older than the in-memory ring. The caller holds d.mu.
func (d *DS) blocksFor(from, to uint64) [][]byte {
	var out [][]byte
	next := from
	if d.source != nil && (len(d.recent) == 0 || d.recent[0].epoch > next) {
		if blocks, err := d.source.Blocks(next, to); err == nil {
			for _, fb := range blocks {
				if fb.Epoch != next || next >= to {
					continue
				}
				payload, err := wire.SealedFinalBlock(fb)
				if err != nil {
					d.m.recvErrors.Inc()
					return out
				}
				out = append(out, payload)
				next++
			}
		}
	}
	for _, b := range d.recent {
		if next >= to {
			break
		}
		if b.epoch == next {
			out = append(out, b.payload)
			next++
		}
	}
	return out
}

func (d *DS) send(to string, t wire.MsgType, payload []byte) {
	_ = d.ep.Send(to, wire.EncodeFrame(t, payload))
}

// stateResp answers a state query from canonical state.
func (d *DS) stateResp(q *wire.StateQuery) *wire.StateResp {
	resp := &wire.StateResp{Corr: q.Corr}
	if q.Field == "" {
		acc, ok := d.net.Accounts.Get(q.Addr)
		if !ok {
			return resp
		}
		resp.Found = true
		resp.Balance = acc.Balance.Big(new(big.Int))
		resp.Nonce = acc.Nonce
		return resp
	}
	c := d.net.Contracts.Get(q.Addr)
	if c == nil {
		return resp
	}
	v, err := c.Snapshot().LoadField(q.Field)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	if q.Key != "" {
		m, ok := v.(*value.Map)
		if !ok {
			resp.Err = fmt.Sprintf("field %s is not a map", q.Field)
			return resp
		}
		if v, ok = m.GetCK(q.Key); !ok {
			return resp
		}
	}
	resp.Found = true
	resp.Value = v
	return resp
}
