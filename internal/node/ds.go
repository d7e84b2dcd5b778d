package node

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
)

// DS is the DS-committee role: it owns the canonical shard.Network,
// drives epochs over the wire, and answers lookup-node submissions and
// state queries. It is a handler over a runtime, which enters Tick as
// a call.
//
// An epoch is a state with a deadline: a tick dispatches (BeginEpoch),
// ships each shard its TxBatch and arms the collect deadline; the
// MicroBlock that completes the set, or the deadline, finalizes the
// epoch, broadcasts the sealed FinalBlock to every lookup, then to
// every shard node, and answers the tick. A MicroBlock is taken only
// from the node the committee sent that shard's batch to. One that
// never arrives or has no account delta is lost: FinalizeEpoch
// requeues the batch and, after shard.FaultEscalation such epochs in a
// row, runs the shard's traffic on the committee until it answers.
type DS struct {
	rt     nodeRuntime
	cfg    dsConfig
	net    *shard.Network
	shards []string

	// The runtime's lock guards the network and everything below.
	// collect is the epoch in flight, nil between epochs; ticks are the
	// ticks waiting for it to end, the producer's with a then.
	collect  *collecting
	ticks    []*call
	producer dsProduce
	lookups  map[string]bool

	imageSendErrors *obs.Counter
}

// collecting is the collect state of one epoch: the dispatched run,
// the MicroBlocks received so far by shard, and the tick it answers.
type collecting struct {
	run    *shard.EpochRun
	blocks []*shard.MicroBlock
	c      *call
}

// The committee's deadlines.
const (
	collectDeadline uint64 = iota
	produceDeadline
)

// dsProduce is Produce's call: the producer's interval (0: none) and
// what each produced tick's call hands its result to. A Tick's call
// carries no request.
type dsProduce struct {
	every time.Duration
	then  func(res any, err error)
}

// BlockSource serves committed FinalBlocks by epoch range [from, to)
// for replica catch-up; *store.Store implements it over the epoch
// journal. The result may be a sub-range (compaction trims the old
// end), but present blocks are contiguous ascending. A request whose
// first epoch the source does not hold is answered with a state image.
type BlockSource interface {
	Blocks(from, to uint64) ([]*shard.FinalBlock, error)
}

// maxBlocksPerResponse caps how many FinalBlocks ride in one
// MsgBlockResponse, so a far-behind replica's request cannot produce
// an oversized frame; the replica re-requests the remainder.
const maxBlocksPerResponse = 64

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

// DSBlockSource lets the committee serve catch-up requests from past
// blocks — typically the committee's own *store.Store, whose journal
// holds everything since the last snapshot. Without one, every gap is
// answered with a state image.
func DSBlockSource(src BlockSource) DSOption {
	return func(c *dsConfig) { c.source = src }
}

// NewDS builds the committee around an existing canonical network
// (compose shard.NewNetwork(opts...) for its configuration — shard
// count, gas limits, recorders). shardNames maps shard index to the
// peer name executing that shard's queues. Call Run to start it.
func NewDS(name string, net *shard.Network, ep Endpoint, shardNames []string, opts ...DSOption) (*DS, error) {
	if len(shardNames) != net.Config().NumShards {
		return nil, fmt.Errorf("node: %d shard names for %d shards", len(shardNames), net.Config().NumShards)
	}
	c := dsConfig{timeout: 2 * time.Second}
	for _, o := range opts {
		o(&c)
	}
	d := &DS{cfg: c, net: net, shards: append([]string(nil), shardNames...), lookups: make(map[string]bool)}
	d.imageSendErrors = d.rt.init(d, ep, c.rec, c.reg).Counter("node.image_send_errors")
	for _, l := range c.lookups {
		d.lookups[l] = true
	}
	return d, nil
}

// Net exposes the canonical network, which only the committee mutates.
func (d *DS) Net() *shard.Network { return d.net }

// Run starts the committee's runtime.
func (d *DS) Run() { d.rt.run() }

// Close stops the committee and detaches its endpoint; a Tick still
// waiting returns ErrTransportClosed. Safe to call concurrently and
// more than once.
func (d *DS) Close() { d.rt.close() }

// Tick drives one epoch and reports its outcome. Safe to call from any
// goroutine; concurrent Ticks run one after another.
func (d *DS) Tick() TickResult {
	res, err := d.rt.do(nil)
	if r, ok := res.(TickResult); ok {
		return r
	}
	return TickResult{Err: err}
}

// Produce makes the committee tick itself every interval (empty epochs
// produce empty blocks, like a real chain); a produced tick that comes
// due during an epoch starts when it ends. onTick, if non-nil,
// observes every produced result, including transient errors; it runs
// unlocked but must not call Close. Once the returned stop function
// returns no produced epoch starts; the result of one in flight still
// reaches onTick, before Close returns.
func (d *DS) Produce(interval time.Duration, onTick func(TickResult)) (stop func()) {
	_, _ = d.rt.do(dsProduce{interval, func(res any, _ error) {
		if onTick != nil {
			onTick(res.(TickResult))
		}
	}})
	return func() { _, _ = d.rt.do(dsProduce{}) }
}

func (d *DS) start(effects, time.Time) {}

func (d *DS) call(fx effects, now time.Time, c *call) {
	p, ok := c.req.(dsProduce)
	if !ok {
		d.tick(fx, now, c)
		return
	}
	d.producer = p
	d.ticks = slices.DeleteFunc(d.ticks, produced)
	fx.cancel(produceDeadline)
	if p.every > 0 {
		fx.arm(produceDeadline, now.Add(p.every))
	}
	fx.reply(c, nil, nil)
}

func (d *DS) deadline(fx effects, now time.Time, key uint64) {
	switch {
	case key == collectDeadline && d.collect != nil:
		d.finishEpoch(fx, now) // stragglers are transport-lost; FinalizeEpoch requeues them
	case key == produceDeadline && d.producer.every > 0:
		fx.arm(produceDeadline, now.Add(d.producer.every))
		if !slices.ContainsFunc(d.ticks, produced) { // a slow epoch skips a beat, as a time.Ticker does
			d.tick(fx, now, &call{then: d.producer.then})
		}
	}
}

// produced tells the producer's ticks from the clients'.
func produced(c *call) bool { return c.then != nil }

// tick queues an epoch for c and begins it unless one is in flight.
func (d *DS) tick(fx effects, now time.Time, c *call) {
	d.ticks = append(d.ticks, c)
	if d.collect == nil {
		d.beginEpoch(fx, now)
	}
}

// beginEpoch dispatches the first waiting tick's epoch, ships each
// shard its TxBatch, opens the collect state and arms its deadline.
func (d *DS) beginEpoch(fx effects, now time.Time) {
	c := d.ticks[0]
	d.ticks = slices.Delete(d.ticks, 0, 1) // clears the slot: a tick's result must not outlive it
	run := d.net.BeginEpoch()
	run.CollectFinalBlock()
	queues := run.Queues()
	for s, q := range queues {
		payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: run.Epoch(), Shard: s, Txs: q})
		if err != nil {
			d.answer(fx, now, c, TickResult{Err: fmt.Errorf("encode tx batch for shard %d: %w", s, err)})
			return
		}
		_ = fx.send(d.shards[s], wire.EncodeFrame(wire.MsgTxBatch, payload))
	}
	d.collect = &collecting{run: run, blocks: make([]*shard.MicroBlock, len(queues)), c: c}
	fx.arm(collectDeadline, now.Add(d.cfg.timeout))
}

// finishEpoch closes the collect state and finalizes the epoch with
// the MicroBlocks that arrived.
func (d *DS) finishEpoch(fx effects, now time.Time) {
	col := d.collect
	d.collect = nil
	fx.cancel(collectDeadline)
	d.answer(fx, now, col.c, d.finalize(fx, col.run, col.blocks))
}

// answer reports an epoch to its tick and begins the next waiting one.
func (d *DS) answer(fx effects, now time.Time, c *call, res TickResult) {
	fx.reply(c, res, nil)
	if len(d.ticks) > 0 {
		d.beginEpoch(fx, now)
	}
}

// finalize commits the epoch and broadcasts its FinalBlock.
func (d *DS) finalize(fx effects, run *shard.EpochRun, blocks []*shard.MicroBlock) TickResult {
	stats, fb, err := d.net.FinalizeEpoch(run, blocks)
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
		// Lookups first: they are what clients read, and the replicas'
		// applies would otherwise take every CPU before the lookups'
		// receipts are filed.
		frame := wire.EncodeFrame(wire.MsgFinalBlock, payload)
		for l := range d.lookups {
			_ = fx.send(l, frame)
		}
		for _, s := range d.shards {
			_ = fx.send(s, frame)
		}
	}
	return TickResult{Stats: stats, Root: d.net.StateRoot()}
}

// frame handles one received frame. A MicroBlock lands in the collect
// state of the epoch in flight if its shard's own node sent it;
// outside an epoch it is stale (a post-timeout arrival) and is
// dropped.
func (d *DS) frame(fx effects, now time.Time, from string, typ wire.MsgType, payload []byte) bool {
	var err error
	switch typ {
	case wire.MsgSubmit:
		var s *wire.Submit
		if s, err = wire.DecodeSubmit(payload); err == nil {
			d.lookups[from] = true
			resp := &wire.SubmitResp{Corr: s.Corr, ID: d.net.Submit(s.Tx)}
			_ = fx.send(from, wire.EncodeFrame(wire.MsgSubmitResp, wire.EncodeSubmitResp(resp)))
		}
	case wire.MsgStateQuery:
		var q *wire.StateQuery
		if q, err = wire.DecodeStateQuery(payload); err == nil {
			d.lookups[from] = true
			payload, err := wire.EncodeStateResp(d.stateResp(q))
			if err != nil {
				payload, _ = wire.EncodeStateResp(&wire.StateResp{Corr: q.Corr, Err: err.Error()})
			}
			_ = fx.send(from, wire.EncodeFrame(wire.MsgStateResp, payload))
		}
	case wire.MsgMicroBlock:
		c := d.collect
		if c == nil {
			return true // stale: arrived after the collect timeout
		}
		mb, err := wire.DecodeMicroBlock(payload)
		if err != nil || mb.Shard < 0 || mb.Shard >= len(c.blocks) || from != d.shards[mb.Shard] {
			return false // only a shard's own node speaks for it
		}
		if mb.Epoch == d.net.Epoch && c.blocks[mb.Shard] == nil {
			if c.blocks[mb.Shard] = mb; !slices.Contains(c.blocks, nil) {
				d.finishEpoch(fx, now)
			}
		}
	case wire.MsgHello:
		var h *wire.Hello
		if h, err = wire.DecodeHello(payload); err == nil && h.Role == "lookup" {
			d.lookups[from] = true
		}
	case wire.MsgBlockRequest:
		var q *wire.BlockRequest
		if q, err = wire.DecodeBlockRequest(payload); err == nil {
			return d.serveBlocks(fx, from, q)
		}
	default:
		return false
	}
	return err == nil
}

// serveBlocks answers a replica catch-up request in one of three ways:
// the empty response when the requester is not behind (Head <= From);
// the contiguous run of journaled FinalBlocks from q.From, clipped to
// the head and the response size cap, when the block source still
// holds q.From; otherwise a state image of the live state, one
// MsgStateImage frame per record, which the replica applies whole once
// the last has arrived. The first frame that fails to send ends the
// image and counts in node.image_send_errors; the replica, holding no
// trailer, applies nothing and asks again on its next skew. It reports
// false if a block or the image failed to encode.
func (d *DS) serveBlocks(fx effects, to string, q *wire.BlockRequest) bool {
	head := d.net.Epoch // epochs < head are committed
	var blocks [][]byte
	if end := min(q.To, head, q.From+maxBlocksPerResponse); end > q.From && d.cfg.source != nil {
		fbs, _ := d.cfg.source.Blocks(q.From, end) // a source that fails serves no blocks: the image stands in
		for _, fb := range fbs {
			if fb.Epoch != q.From+uint64(len(blocks)) {
				break
			}
			payload, err := wire.SealedFinalBlock(fb)
			if err != nil {
				return false
			}
			blocks = append(blocks, payload)
		}
	}
	if head > q.From && len(blocks) == 0 {
		var sendErr error
		err := store.Image(d.net, func(record []byte) error {
			sendErr = fx.send(to, wire.EncodeFrame(wire.MsgStateImage, record))
			return sendErr
		})
		if sendErr != nil {
			d.imageSendErrors.Inc()
			return true
		}
		return err == nil
	}
	_ = fx.send(to, wire.EncodeFrame(wire.MsgBlockResponse, wire.AppendBlockResponse(nil, q.From, head, blocks)))
	return true
}

// stateResp answers a state query from canonical state.
func (d *DS) stateResp(q *wire.StateQuery) *wire.StateResp {
	resp := &wire.StateResp{Corr: q.Corr}
	if q.Field == "" {
		if acc, ok := d.net.Accounts.Get(q.Addr); ok {
			resp.Found, resp.Balance, resp.Nonce = true, acc.Balance.Big(new(big.Int)), acc.Nonce
		}
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
