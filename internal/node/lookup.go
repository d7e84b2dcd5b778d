package node

import (
	"fmt"
	"math/big"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

// Lookup is the client-facing role: it forwards submissions and state
// queries to the DS committee, correlates the responses, and files the
// receipts of FinalBlock broadcasts so clients can poll commit status
// without touching the committee. It holds no state replica and is the
// one role that keeps receipts, in a bounded log (DefaultReceiptCap)
// that evicts the oldest first and owns its bytes: no frame or block
// outlives its handling; wire.ReceiptEvents builds the events for the
// client that asks.
//
// It is a handler over a runtime, which enters SubmitTx, the queries
// and WaitReceipt as calls. It takes frames only from its committee
// (any other sender's is a receive error); over TCP that stops
// misdirected and stale frames, not a process that lies about its name.
type Lookup struct {
	name string
	rt   nodeRuntime
	ds   string
	// timeout is lookupTimeout; a test shortens it before Run.
	timeout time.Duration

	// The runtime's lock guards everything below. pending holds each
	// waiting call, with a deadline, under the correlation id its
	// response carries (a WaitReceipt: under an id of its own).
	corr     uint64
	pending  map[uint64]*call
	receipts *ReceiptLog
	// ranges is the array each FinalBlock's receipt ranges are read
	// into, kept from block to block.
	ranges        []wire.ReceiptRange
	receiptsGauge *obs.Gauge
	bytesGauge    *obs.Gauge
	epoch         uint64
	root          string
}

// waitReceipt is WaitReceipt's call.
type waitReceipt struct {
	id      uint64
	timeout time.Duration
}

// LookupOption configures a Lookup.
type LookupOption func(*lookupConfig)

type lookupConfig struct {
	reg        *obs.Registry
	rec        obs.Recorder
	receiptCap int
}

// lookupTimeout bounds how long SubmitTx and GetState wait for the
// committee's response.
const lookupTimeout = 5 * time.Second

// LookupObs attaches transport observability to the node's endpoint.
func LookupObs(reg *obs.Registry, rec obs.Recorder) LookupOption {
	return func(c *lookupConfig) { c.reg, c.rec = reg, rec }
}

// NewLookup builds a lookup talking to the DS peer named ds. Call Run
// to start it.
func NewLookup(name string, ep Endpoint, ds string, opts ...LookupOption) *Lookup {
	var c lookupConfig
	for _, o := range opts {
		o(&c)
	}
	l := &Lookup{name: name, ds: ds, timeout: lookupTimeout, pending: make(map[uint64]*call), receipts: NewReceiptLog(c.receiptCap)}
	reg := l.rt.init(l, ep, c.rec, c.reg)
	l.receiptsGauge, l.bytesGauge = reg.Gauge("node.lookup_receipts"), reg.Gauge("node.lookup_receipt_bytes")
	return l
}

// Run starts the lookup; a call still waiting at Close returns
// ErrTransportClosed.
func (l *Lookup) Run() { l.rt.run() }

// Close stops the lookup and detaches its endpoint; it is safe to call
// concurrently and more than once.
func (l *Lookup) Close() { l.rt.close() }

// start announces the lookup to the committee (MsgHello), so a lookup
// that only ever polls receipts is in the FinalBlock fan-out too.
func (l *Lookup) start(fx effects, _ time.Time) {
	hello := wire.EncodeHello(&wire.Hello{Name: l.name, Role: "lookup"})
	_ = fx.send(l.ds, wire.EncodeFrame(wire.MsgHello, hello))
}

func (l *Lookup) frame(fx effects, _ time.Time, from string, typ wire.MsgType, payload []byte) bool {
	switch {
	case from != l.ds:
		return false
	case typ == wire.MsgSubmitResp:
		r, err := wire.DecodeSubmitResp(payload)
		if err == nil {
			l.answer(fx, r.Corr, r, nil)
		}
		return err == nil
	case typ == wire.MsgStateResp:
		r, err := wire.DecodeStateResp(payload)
		if err == nil {
			l.answer(fx, r.Corr, r, nil)
		}
		return err == nil
	case typ == wire.MsgFinalBlock:
		if l.finalBlock(payload) != nil {
			return false
		}
		for key, c := range l.pending {
			if w, ok := c.req.(*waitReceipt); ok {
				if r := l.receipts.Receipt(w.id); r != nil {
					l.answer(fx, key, r, nil)
				}
			}
		}
		return true
	}
	return false
}

// call sends the committee a submission or query under a fresh
// correlation id, or parks a WaitReceipt whose receipt is not filed
// yet; either waits in pending until its answer or its deadline.
func (l *Lookup) call(fx effects, now time.Time, c *call) {
	l.corr++
	timeout, typ := l.timeout, wire.MsgSubmit
	var payload []byte
	var err error
	switch r := c.req.(type) {
	case *chain.Tx:
		payload, err = wire.EncodeSubmit(&wire.Submit{Corr: l.corr, Tx: r})
	case *wire.StateQuery:
		r.Corr, typ = l.corr, wire.MsgStateQuery
		payload = wire.EncodeStateQuery(r)
	case *waitReceipt:
		if rc := l.receipts.Receipt(r.id); rc != nil || r.timeout <= 0 {
			fx.reply(c, rc, nil)
			return
		}
		timeout = r.timeout
	}
	if err == nil && payload != nil {
		err = fx.send(l.ds, wire.EncodeFrame(typ, payload))
	}
	if err != nil {
		fx.reply(c, nil, err)
		return
	}
	l.pending[l.corr] = c
	fx.arm(l.corr, now.Add(timeout))
}

// deadline ends a call that got no answer in time with ErrTimeout: a
// request's frame or response may have been lost, a WaitReceipt's
// receipt has not come.
func (l *Lookup) deadline(fx effects, _ time.Time, key uint64) {
	l.answer(fx, key, nil, ErrTimeout)
}

// answer replies to the call waiting under key, if one still is.
func (l *Lookup) answer(fx effects, key uint64, res any, err error) {
	if c := l.pending[key]; c != nil {
		delete(l.pending, key)
		fx.cancel(key)
		fx.reply(c, res, err)
	}
}

// finalBlock files a FinalBlock broadcast's receipts and notes its
// epoch and root. A lookup has no state to apply the block's deltas to:
// wire.DecodeReceiptSection reads the block with the reader a
// replica's DecodeFinalBlock uses, told to record where each receipt
// lies instead of building, so every byte is checked exactly as a
// replica checks it and nothing is built. The log copies the receipt
// section, so the payload is garbage on return. A block whose receipts
// the log refuses is a receive error, like one that does not decode.
func (l *Lookup) finalBlock(payload []byte) error {
	sec := wire.ReceiptSection{Receipts: l.ranges}
	err := wire.DecodeReceiptSection(payload, &sec)
	if err == nil {
		err = l.receipts.File(sec.Bytes, sec.Receipts)
	}
	l.ranges = sec.Receipts[:0]
	if err != nil {
		return err
	}
	l.receiptsGauge.Set(int64(l.receipts.Len()))
	l.bytesGauge.Set(int64(l.receipts.Bytes()))
	if sec.Epoch >= l.epoch {
		l.epoch = sec.Epoch
		l.root = sec.StateRoot
	}
	return nil
}

// SubmitTx queues a transaction at the committee and returns its
// assigned id. The committee judges validity at dispatch, not here;
// an error it does send back (SubmitResp.Err, input from another
// process) is returned as a refusal. A lost frame or response
// surfaces as ErrTimeout.
func (l *Lookup) SubmitTx(tx *chain.Tx) (uint64, error) {
	r, err := request[*wire.SubmitResp](l, "submit", tx)
	if err != nil {
		return 0, err
	}
	if r.Err != "" {
		return 0, fmt.Errorf("submit rejected: %s", r.Err)
	}
	return r.ID, nil
}

// request makes one committee request a call and returns its answer,
// an error unless it is an R.
func request[R any](l *Lookup, what string, req any) (r R, err error) {
	res, err := l.rt.do(req)
	if err != nil {
		return r, fmt.Errorf("%s: %w", what, err)
	}
	r, ok := res.(R)
	if !ok {
		return r, fmt.Errorf("%s: answered with a %T", what, res)
	}
	return r, nil
}

// AccountState is a queried account.
type AccountState struct {
	Balance *big.Int
	Nonce   uint64
}

// GetAccount queries the committee for an account's balance and nonce
// (found == false when the account does not exist).
func (l *Lookup) GetAccount(addr chain.Address) (st AccountState, found bool, err error) {
	resp, err := l.query(&wire.StateQuery{Addr: addr})
	if err != nil || !resp.Found {
		return AccountState{}, false, err
	}
	return AccountState{Balance: resp.Balance, Nonce: resp.Nonce}, true, nil
}

// GetState queries a contract field, optionally narrowed to one map
// entry by canonical key. The response's Value is nil when not found.
func (l *Lookup) GetState(addr chain.Address, field, key string) (*wire.StateResp, error) {
	return l.query(&wire.StateQuery{Addr: addr, Field: field, Key: key})
}

func (l *Lookup) query(q *wire.StateQuery) (*wire.StateResp, error) {
	r, err := request[*wire.StateResp](l, "state query", q)
	if err != nil {
		return nil, err
	}
	if r.Err != "" {
		return nil, fmt.Errorf("state query: %s", r.Err)
	}
	return r, nil
}

// Receipt returns the filed receipt for a transaction id, or nil if
// it has not committed (or was lost, or evicted).
func (l *Lookup) Receipt(id uint64) *chain.Receipt {
	l.rt.mu.Lock()
	defer l.rt.mu.Unlock()
	return l.receipts.Receipt(id)
}

// WaitReceipt blocks until the transaction's receipt arrives in a
// FinalBlock broadcast or the deadline passes (returning nil).
func (l *Lookup) WaitReceipt(id uint64, timeout time.Duration) *chain.Receipt {
	res, _ := l.rt.do(&waitReceipt{id, timeout})
	r, _ := res.(*chain.Receipt)
	return r
}

// Chain reports the latest finalized epoch and state root seen.
func (l *Lookup) Chain() (epoch uint64, root string) {
	l.rt.mu.Lock()
	defer l.rt.mu.Unlock()
	return l.epoch, l.root
}
