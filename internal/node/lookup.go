package node

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

// Lookup is the client-facing actor: it forwards submissions and state
// queries to the DS committee over the wire, correlates the responses,
// and files the receipts of FinalBlock broadcasts so clients can poll
// commit status without touching the committee. It holds no state
// replica — it is a light client — and it is the one role that keeps
// receipts: the committee and the shard replicas apply blocks and keep
// none. The receipt log is bounded (LookupReceiptCap): oldest receipts
// are evicted first, so a long-running lookup's memory stays flat no
// matter how many epochs flow past it. Receipts rest there packed,
// their events encoded, in bytes the log owns — no frame and no block
// outlives its handling; wire.ReceiptEvents builds the events for the
// client that asks.
type Lookup struct {
	name string
	ep   Endpoint
	ds   string
	m    *linkMetrics
	// timeout is lookupTimeout; a test shortens it before Run.
	timeout time.Duration

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu   sync.Mutex
	corr uint64
	// pending routes each response to its request by correlation id.
	pending       map[uint64]chan any
	receipts      *ReceiptLog
	receiptsGauge *obs.Gauge
	bytesGauge    *obs.Gauge
	epoch         uint64
	root          string
	commitCh      chan struct{}
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

// LookupReceiptCap bounds the lookup's receipt log, the only one in a
// cluster, to the n most recent receipts (default DefaultReceiptCap,
// 100000). Older receipts are evicted FIFO; a client that polls too
// late simply sees nil, exactly as if the receipt's FinalBlock
// broadcast had been lost.
func LookupReceiptCap(n int) LookupOption {
	return func(c *lookupConfig) {
		if n > 0 {
			c.receiptCap = n
		}
	}
}

// NewLookup builds a lookup actor talking to the DS peer named ds.
// Call Run to start it.
func NewLookup(name string, ep Endpoint, ds string, opts ...LookupOption) *Lookup {
	var c lookupConfig
	for _, o := range opts {
		o(&c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	lep := Instrument(ep, c.rec, c.reg, nil).(*link)
	return &Lookup{
		name:          name,
		ep:            lep,
		ds:            ds,
		m:             lep.m,
		timeout:       lookupTimeout,
		quit:          make(chan struct{}),
		pending:       make(map[uint64]chan any),
		receipts:      NewReceiptLog(c.receiptCap),
		receiptsGauge: c.reg.Gauge("node.lookup_receipts"),
		bytesGauge:    c.reg.Gauge("node.lookup_receipt_bytes"),
		commitCh:      make(chan struct{}),
	}
}

// Run starts the actor loop. The lookup announces itself to the
// committee first (MsgHello), so the DS adds it to the FinalBlock
// fan-out before any traffic flows — a lookup that only ever polls
// receipts would otherwise never be learned.
func (l *Lookup) Run() {
	hello := wire.EncodeHello(&wire.Hello{Name: l.name, Role: "lookup"})
	_ = l.ep.Send(l.ds, wire.EncodeFrame(wire.MsgHello, hello))
	l.wg.Add(1)
	go l.loop()
}

// Close stops the actor and detaches its endpoint. Safe to call
// concurrently and more than once.
func (l *Lookup) Close() {
	l.closeOnce.Do(func() { close(l.quit) })
	l.ep.Close()
	l.wg.Wait()
}

func (l *Lookup) loop() {
	defer l.wg.Done()
	for {
		_, frame, err := l.ep.Recv()
		if err != nil {
			return
		}
		typ, payload, _, err := wire.DecodeFrame(frame)
		if err != nil {
			l.m.recvErrors.Inc()
			continue
		}
		switch typ {
		case wire.MsgSubmitResp:
			var r *wire.SubmitResp
			if r, err = wire.DecodeSubmitResp(payload); err == nil {
				l.deliver(r.Corr, r)
			}
		case wire.MsgStateResp:
			var r *wire.StateResp
			if r, err = wire.DecodeStateResp(payload); err == nil {
				l.deliver(r.Corr, r)
			}
		case wire.MsgFinalBlock:
			err = l.finalBlock(payload)
		default:
			l.m.recvErrors.Inc()
		}
		if err != nil {
			l.m.recvErrors.Inc()
		}
	}
}

// deliver hands a response to the request waiting under its
// correlation id, if one still is.
func (l *Lookup) deliver(corr uint64, resp any) {
	l.mu.Lock()
	ch := l.pending[corr]
	delete(l.pending, corr)
	l.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

// finalBlock files a FinalBlock broadcast's receipts and notes its
// epoch and root. A lookup has no state to apply the block's deltas to:
// wire.DecodeFinalBlockReceipts reads them with the reader a replica's
// DecodeFinalBlock uses, told not to build, so they are checked exactly
// as a replica checks them and none is built. The log copies what it
// files, so the payload is garbage on return. A block whose receipts
// the log refuses is a receive error, like one that does not decode.
func (l *Lookup) finalBlock(payload []byte) error {
	epoch, root, recs, err := wire.DecodeFinalBlockReceipts(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.receipts.File(recs); err != nil {
		return err
	}
	l.receiptsGauge.Set(int64(l.receipts.Len()))
	l.bytesGauge.Set(int64(l.receipts.Bytes()))
	if epoch >= l.epoch {
		l.epoch = epoch
		l.root = root
	}
	close(l.commitCh)
	l.commitCh = make(chan struct{})
	return nil
}

// SubmitTx queues a transaction at the committee and returns its
// assigned id. The committee judges validity at dispatch, not here;
// an error it does send back (SubmitResp.Err, input from another
// process) is returned as a refusal. A lost frame or response
// surfaces as ErrTimeout.
func (l *Lookup) SubmitTx(tx *chain.Tx) (uint64, error) {
	r, err := request[*wire.SubmitResp](l, "submit", wire.MsgSubmit, func(corr uint64) ([]byte, error) {
		return wire.EncodeSubmit(&wire.Submit{Corr: corr, Tx: tx})
	})
	if err != nil {
		return 0, err
	}
	if r.Err != "" {
		return 0, fmt.Errorf("submit rejected: %s", r.Err)
	}
	return r.ID, nil
}

// request sends the committee one request, built by encode around a
// fresh correlation id, and waits for the response routed back under
// that id (an error unless it is an R), the lookup's timeout
// (ErrTimeout) or Close (ErrTransportClosed). Whatever the outcome,
// the id's pending entry is gone on return.
func request[R any](l *Lookup, what string, typ wire.MsgType, encode func(corr uint64) ([]byte, error)) (r R, err error) {
	ch := make(chan any, 1)
	l.mu.Lock()
	l.corr++
	corr := l.corr
	l.pending[corr] = ch
	l.mu.Unlock()
	// The loop deletes the entry when it delivers the response; only a
	// request that ends without one has to take its own away.
	answered := false
	defer func() {
		if !answered {
			l.mu.Lock()
			delete(l.pending, corr)
			l.mu.Unlock()
		}
	}()
	payload, err := encode(corr)
	if err != nil {
		return r, err
	}
	if err := l.ep.Send(l.ds, wire.EncodeFrame(typ, payload)); err != nil {
		return r, err
	}
	// One timer, stopped when the response wins: under go 1.22 an
	// unstopped time.After timer stays in the runtime's heap until it
	// fires, thousands of them at a busy lookup.
	timer := time.NewTimer(l.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		answered = true
		if v, ok := resp.(R); ok {
			return v, nil
		}
		return r, fmt.Errorf("%s: answered with a %T", what, resp)
	case <-timer.C:
		return r, fmt.Errorf("%s: %w", what, ErrTimeout)
	case <-l.quit:
		return r, ErrTransportClosed
	}
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
	if err != nil {
		return AccountState{}, false, err
	}
	if !resp.Found {
		return AccountState{}, false, nil
	}
	return AccountState{Balance: resp.Balance, Nonce: resp.Nonce}, true, nil
}

// GetState queries a contract field, optionally narrowed to one map
// entry by canonical key. The response's Value is nil when not found.
func (l *Lookup) GetState(addr chain.Address, field, key string) (*wire.StateResp, error) {
	return l.query(&wire.StateQuery{Addr: addr, Field: field, Key: key})
}

func (l *Lookup) query(q *wire.StateQuery) (*wire.StateResp, error) {
	r, err := request[*wire.StateResp](l, "state query", wire.MsgStateQuery, func(corr uint64) ([]byte, error) {
		q.Corr = corr
		return wire.EncodeStateQuery(q), nil
	})
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.receipts.Receipt(id)
}

// WaitReceipt blocks until the transaction's receipt arrives in a
// FinalBlock broadcast or the deadline passes (returning nil).
func (l *Lookup) WaitReceipt(id uint64, timeout time.Duration) *chain.Receipt {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		r := l.receipts.Receipt(id)
		ch := l.commitCh
		l.mu.Unlock()
		if r != nil {
			return r
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		case <-l.quit:
			timer.Stop()
			return nil
		}
	}
}

// Chain reports the latest finalized epoch and state root seen.
func (l *Lookup) Chain() (epoch uint64, root string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.root
}
