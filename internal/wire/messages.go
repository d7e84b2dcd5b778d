package wire

import (
	"fmt"
	"math/big"
	"sort"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// --- Tx ---

// EncodeTx encodes a transaction payload. Deployments never cross the
// wire (contracts are part of each node's deterministic genesis) and
// fail with ErrUnencodable.
func EncodeTx(tx *chain.Tx) ([]byte, error) {
	return appendTx(make([]byte, 0, 96), tx)
}

func appendTx(b []byte, tx *chain.Tx) ([]byte, error) {
	if tx.Kind == chain.TxDeploy || tx.Deploy != nil {
		return nil, fmt.Errorf("%w: contract deployment (deployments are genesis-local)", ErrUnencodable)
	}
	b = appendUvarint(b, tx.ID)
	b = append(b, byte(tx.Kind))
	b = appendAddr(b, tx.From)
	b = appendAddr(b, tx.To)
	b = appendUvarint(b, tx.Nonce)
	b = appendBig(b, tx.Amount)
	b = appendUvarint(b, tx.GasLimit)
	b = appendUvarint(b, tx.GasPrice)
	b = appendString(b, tx.Transition)
	keys := make([]string, 0, len(tx.Args))
	for k := range tx.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = appendUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = appendString(b, k)
		if b, err = appendValue(b, tx.Args[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeTx decodes a transaction payload.
func DecodeTx(b []byte) (*chain.Tx, error) {
	r := &reader{b: b}
	tx := r.tx()
	if err := r.done(); err != nil {
		return nil, err
	}
	return tx, nil
}

func (r *reader) tx() *chain.Tx {
	tx := &chain.Tx{}
	tx.ID = r.uvarint()
	kind := r.byte()
	if r.err == nil && kind != byte(chain.TxTransfer) && kind != byte(chain.TxCall) {
		r.fail("bad transaction kind %d", kind)
	}
	tx.Kind = chain.TxKind(kind)
	tx.From = r.addr()
	tx.To = r.addr()
	tx.Nonce = r.uvarint()
	tx.Amount = r.big()
	if r.err == nil && (tx.Amount == nil || tx.Amount.Sign() < 0) {
		r.fail("bad transaction amount")
	}
	tx.GasLimit = r.uvarint()
	tx.GasPrice = r.uvarint()
	tx.Transition = r.string()
	n := r.count(2)
	if n > 0 {
		tx.Args = make(map[string]value.Value, n)
	}
	for i := 0; i < n; i++ {
		k := r.string()
		v := r.value(0)
		if r.err != nil {
			return nil
		}
		tx.Args[k] = v
	}
	if r.err != nil {
		return nil
	}
	return tx
}

// --- Receipt ---

func appendReceipt(b []byte, rec *chain.Receipt) ([]byte, error) {
	b = appendUvarint(b, rec.TxID)
	b = appendBool(b, rec.Success)
	b = appendUvarint(b, rec.GasUsed)
	b = appendString(b, rec.Error)
	b = appendVarint(b, int64(rec.Shard))
	b = appendUvarint(b, rec.Epoch)
	b = appendUvarint(b, uint64(len(rec.Events)))
	var err error
	for _, ev := range rec.Events {
		if b, err = appendValue(b, ev); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (r *reader) receipt() *chain.Receipt {
	rec := &chain.Receipt{}
	rec.TxID = r.uvarint()
	rec.Success = r.bool()
	rec.GasUsed = r.uvarint()
	rec.Error = r.string()
	rec.Shard = int(r.varint())
	rec.Epoch = r.uvarint()
	n := r.count(1)
	if n > 0 {
		rec.Events = make([]value.Msg, 0, n)
	}
	for i := 0; i < n; i++ {
		v := r.value(0)
		if r.err != nil {
			return nil
		}
		msg, ok := v.(value.Msg)
		if !ok {
			r.fail("receipt event is not a message")
			return nil
		}
		rec.Events = append(rec.Events, msg)
	}
	if r.err != nil {
		return nil
	}
	return rec
}

// --- StateDelta ---

// EncodeStateDelta encodes one shard's per-contract state delta.
func EncodeStateDelta(d *chain.StateDelta) ([]byte, error) {
	return appendStateDelta(make([]byte, 0, 128), d)
}

func appendStateDelta(b []byte, d *chain.StateDelta) ([]byte, error) {
	b = appendAddr(b, d.Contract)
	b = appendVarint(b, int64(d.Shard))
	fields := make([]string, 0, len(d.Fields))
	for f := range d.Fields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	b = appendUvarint(b, uint64(len(fields)))
	var err error
	for _, f := range fields {
		fd := d.Fields[f]
		b = appendString(b, f)
		b = appendBool(b, fd.Whole != nil)
		if fd.Whole != nil {
			if b, err = appendEntryDelta(b, fd.Whole); err != nil {
				return nil, err
			}
		}
		kps := make([]string, 0, len(fd.Entries))
		for kp := range fd.Entries {
			kps = append(kps, kp)
		}
		sort.Strings(kps)
		b = appendUvarint(b, uint64(len(kps)))
		for _, kp := range kps {
			e := fd.Entries[kp]
			b = appendString(b, kp)
			if b, err = appendEntryDelta(b, &e); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func appendEntryDelta(b []byte, e *chain.EntryDelta) ([]byte, error) {
	b = append(b, byte(e.Kind))
	b = appendUvarint(b, uint64(len(e.Keys)))
	var err error
	for _, k := range e.Keys {
		if b, err = appendValue(b, k); err != nil {
			return nil, err
		}
	}
	b = appendBool(b, e.Value != nil)
	if e.Value != nil {
		if b, err = appendValue(b, e.Value); err != nil {
			return nil, err
		}
	}
	b = appendBig(b, e.Delta)
	return b, nil
}

// DecodeStateDelta decodes one state delta payload.
func DecodeStateDelta(b []byte) (*chain.StateDelta, error) {
	r := &reader{b: b}
	d := r.stateDelta()
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

func (r *reader) stateDelta() *chain.StateDelta {
	d := &chain.StateDelta{Fields: make(map[string]*chain.FieldDelta)}
	d.Contract = r.addr()
	d.Shard = int(r.varint())
	nf := r.count(2)
	for i := 0; i < nf; i++ {
		f := r.string()
		fd := &chain.FieldDelta{Entries: make(map[string]chain.EntryDelta)}
		if r.bool() {
			fd.Whole = r.entryDelta()
		}
		ne := r.count(2)
		for j := 0; j < ne; j++ {
			kp := r.string()
			e := r.entryDelta()
			if r.err != nil {
				return nil
			}
			fd.Entries[kp] = *e
		}
		if r.err != nil {
			return nil
		}
		d.Fields[f] = fd
	}
	if r.err != nil {
		return nil
	}
	return d
}

func (r *reader) entryDelta() *chain.EntryDelta {
	e := &chain.EntryDelta{}
	kind := r.byte()
	if r.err == nil && kind > byte(chain.Delete) {
		r.fail("bad delta kind %d", kind)
	}
	e.Kind = chain.DeltaKind(kind)
	n := r.count(1)
	if n > 0 {
		e.Keys = make([]value.Value, 0, n)
	}
	for i := 0; i < n; i++ {
		e.Keys = append(e.Keys, r.value(0))
	}
	if r.bool() {
		e.Value = r.value(0)
	}
	e.Delta = r.big()
	if r.err != nil {
		return nil
	}
	return e
}

func appendStateDeltas(b []byte, ds []*chain.StateDelta) ([]byte, error) {
	b = appendUvarint(b, uint64(len(ds)))
	var err error
	for _, d := range ds {
		if b, err = appendStateDelta(b, d); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (r *reader) stateDeltas() []*chain.StateDelta {
	n := r.count(22)
	var ds []*chain.StateDelta
	if n > 0 {
		ds = make([]*chain.StateDelta, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		ds = append(ds, r.stateDelta())
	}
	if r.err != nil {
		return nil
	}
	return ds
}

// --- AccountDelta ---

// appendOptAccountDelta encodes a possibly absent account delta behind
// a presence flag.
func appendOptAccountDelta(b []byte, d *chain.AccountDelta) []byte {
	b = appendBool(b, d != nil)
	if d != nil {
		b = appendAccountDelta(b, d)
	}
	return b
}

func (r *reader) optAccountDelta() *chain.AccountDelta {
	if r.bool() {
		return r.accountDelta()
	}
	return nil
}

func appendAccountDelta(b []byte, d *chain.AccountDelta) []byte {
	addrs := make([]chain.Address, 0, len(d.BalanceDeltas))
	for a := range d.BalanceDeltas {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	b = appendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendAddr(b, a)
		b = appendBig(b, d.BalanceDeltas[a])
	}
	addrs = addrs[:0]
	for a := range d.Nonces {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	b = appendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendAddr(b, a)
		b = appendUvarint(b, d.Nonces[a])
	}
	return b
}

func (r *reader) accountDelta() *chain.AccountDelta {
	d := chain.NewAccountDelta()
	nb := r.count(21)
	for i := 0; i < nb; i++ {
		a := r.addr()
		v := r.big()
		if r.err != nil {
			return nil
		}
		if v == nil {
			r.fail("nil balance delta")
			return nil
		}
		d.BalanceDeltas[a] = v
	}
	nn := r.count(21)
	for i := 0; i < nn; i++ {
		a := r.addr()
		n := r.uvarint()
		if r.err != nil {
			return nil
		}
		d.Nonces[a] = n
	}
	if r.err != nil {
		return nil
	}
	return d
}

func sortAddrs(addrs []chain.Address) {
	sort.Slice(addrs, func(i, j int) bool {
		for k := 0; k < len(addrs[i]); k++ {
			if addrs[i][k] != addrs[j][k] {
				return addrs[i][k] < addrs[j][k]
			}
		}
		return false
	})
}

// --- MicroBlock ---

// EncodeMicroBlock encodes a sealed MicroBlock.
func EncodeMicroBlock(mb *shard.MicroBlock) ([]byte, error) {
	b := make([]byte, 0, 256)
	b = appendVarint(b, int64(mb.Shard))
	b = appendUvarint(b, mb.Epoch)
	b = appendUvarint(b, mb.GasUsed)
	b = appendUvarint(b, uint64(mb.ExecTime))
	var err error
	b = appendUvarint(b, uint64(len(mb.Receipts)))
	for _, rec := range mb.Receipts {
		if b, err = appendReceipt(b, rec); err != nil {
			return nil, err
		}
	}
	if b, err = appendStateDeltas(b, mb.Deltas); err != nil {
		return nil, err
	}
	b = appendOptAccountDelta(b, mb.Accounts)
	b = appendUvarint(b, uint64(len(mb.Deferred)))
	for _, tx := range mb.Deferred {
		if b, err = appendTx(b, tx); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeMicroBlock decodes a MicroBlock payload.
func DecodeMicroBlock(b []byte) (*shard.MicroBlock, error) {
	r := &reader{b: b}
	mb := &shard.MicroBlock{}
	mb.Shard = int(r.varint())
	mb.Epoch = r.uvarint()
	mb.GasUsed = r.uvarint()
	mb.ExecTime = time.Duration(r.uvarint())
	nr := r.count(6)
	if nr > 0 {
		mb.Receipts = make([]*chain.Receipt, 0, nr)
	}
	for i := 0; i < nr; i++ {
		rec := r.receipt()
		if r.err != nil {
			return nil, r.err
		}
		mb.Receipts = append(mb.Receipts, rec)
	}
	mb.Deltas = r.stateDeltas()
	mb.Accounts = r.optAccountDelta()
	nt := r.count(45)
	if nt > 0 {
		mb.Deferred = make([]*chain.Tx, 0, nt)
	}
	for i := 0; i < nt; i++ {
		tx := r.tx()
		if r.err != nil {
			return nil, r.err
		}
		mb.Deferred = append(mb.Deferred, tx)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return mb, nil
}

// --- FinalBlock ---

// EncodeFinalBlock encodes a DS-committed FinalBlock: epoch, root, the
// shard phase (deltas, account delta), the DS phase (the same pair),
// receipts.
func EncodeFinalBlock(fb *shard.FinalBlock) ([]byte, error) {
	b := make([]byte, 0, 512)
	b = appendUvarint(b, fb.Epoch)
	b = appendString(b, fb.StateRoot)
	var err error
	if b, err = appendStateDeltas(b, fb.Deltas); err != nil {
		return nil, err
	}
	b = appendOptAccountDelta(b, fb.Accounts)
	if b, err = appendStateDeltas(b, fb.DSDeltas); err != nil {
		return nil, err
	}
	b = appendOptAccountDelta(b, fb.DSAccounts)
	b = appendUvarint(b, uint64(len(fb.Receipts)))
	for _, rec := range fb.Receipts {
		if b, err = appendReceipt(b, rec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeFinalBlock decodes a FinalBlock payload.
func DecodeFinalBlock(b []byte) (*shard.FinalBlock, error) {
	r := &reader{b: b}
	fb := &shard.FinalBlock{}
	fb.Epoch = r.uvarint()
	fb.StateRoot = r.string()
	fb.Deltas = r.stateDeltas()
	fb.Accounts = r.optAccountDelta()
	fb.DSDeltas = r.stateDeltas()
	fb.DSAccounts = r.optAccountDelta()
	nr := r.count(6)
	if nr > 0 {
		fb.Receipts = make([]*chain.Receipt, 0, nr)
	}
	for i := 0; i < nr; i++ {
		rec := r.receipt()
		if r.err != nil {
			return nil, r.err
		}
		fb.Receipts = append(fb.Receipts, rec)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return fb, nil
}

// --- TxBatch ---

// TxBatch carries one shard's dispatched queue for one epoch.
type TxBatch struct {
	Epoch uint64
	Shard int
	Txs   []*chain.Tx
}

// EncodeTxBatch encodes a dispatched shard queue.
func EncodeTxBatch(batch *TxBatch) ([]byte, error) {
	b := make([]byte, 0, 64+96*len(batch.Txs))
	b = appendUvarint(b, batch.Epoch)
	b = appendVarint(b, int64(batch.Shard))
	b = appendUvarint(b, uint64(len(batch.Txs)))
	var err error
	for _, tx := range batch.Txs {
		if b, err = appendTx(b, tx); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeTxBatch decodes a shard queue payload.
func DecodeTxBatch(b []byte) (*TxBatch, error) {
	r := &reader{b: b}
	batch := &TxBatch{}
	batch.Epoch = r.uvarint()
	batch.Shard = int(r.varint())
	n := r.count(45)
	if n > 0 {
		batch.Txs = make([]*chain.Tx, 0, n)
	}
	for i := 0; i < n; i++ {
		tx := r.tx()
		if r.err != nil {
			return nil, r.err
		}
		batch.Txs = append(batch.Txs, tx)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return batch, nil
}

// --- Submit / SubmitResp ---

// Submit carries a client transaction from a lookup node to the DS
// committee, tagged with a correlation id for the response.
type Submit struct {
	Corr uint64
	Tx   *chain.Tx
}

// EncodeSubmit encodes a submission.
func EncodeSubmit(s *Submit) ([]byte, error) {
	b := appendUvarint(make([]byte, 0, 128), s.Corr)
	return appendTx(b, s.Tx)
}

// DecodeSubmit decodes a submission payload.
func DecodeSubmit(b []byte) (*Submit, error) {
	r := &reader{b: b}
	s := &Submit{Corr: r.uvarint(), Tx: r.tx()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// SubmitResp answers a Submit: the assigned transaction id, or the
// admission error message.
type SubmitResp struct {
	Corr uint64
	ID   uint64
	Err  string
}

// EncodeSubmitResp encodes a submission response.
func EncodeSubmitResp(s *SubmitResp) []byte {
	b := appendUvarint(make([]byte, 0, 32), s.Corr)
	b = appendUvarint(b, s.ID)
	return appendString(b, s.Err)
}

// DecodeSubmitResp decodes a submission response payload.
func DecodeSubmitResp(b []byte) (*SubmitResp, error) {
	r := &reader{b: b}
	s := &SubmitResp{Corr: r.uvarint(), ID: r.uvarint(), Err: r.string()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- StateQuery / StateResp ---

// StateQuery asks the DS committee for a piece of canonical state:
// Field == "" queries the account at Addr; otherwise the named
// contract field of the contract at Addr, optionally narrowed to one
// map entry by its canonical key.
type StateQuery struct {
	Corr  uint64
	Addr  chain.Address
	Field string
	Key   string
}

// EncodeStateQuery encodes a state query.
func EncodeStateQuery(q *StateQuery) []byte {
	b := appendUvarint(make([]byte, 0, 64), q.Corr)
	b = appendAddr(b, q.Addr)
	b = appendString(b, q.Field)
	return appendString(b, q.Key)
}

// DecodeStateQuery decodes a state query payload.
func DecodeStateQuery(b []byte) (*StateQuery, error) {
	r := &reader{b: b}
	q := &StateQuery{Corr: r.uvarint(), Addr: r.addr(), Field: r.string(), Key: r.string()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return q, nil
}

// StateResp answers a StateQuery. For account queries Balance and
// Nonce are set; for field queries Value carries the (possibly
// narrowed) field value. Found is false when the account, contract,
// field, or key does not exist.
type StateResp struct {
	Corr    uint64
	Found   bool
	Balance *big.Int
	Nonce   uint64
	Value   value.Value
	Err     string
}

// EncodeStateResp encodes a state response.
func EncodeStateResp(s *StateResp) ([]byte, error) {
	b := appendUvarint(make([]byte, 0, 64), s.Corr)
	b = appendBool(b, s.Found)
	b = appendBig(b, s.Balance)
	b = appendUvarint(b, s.Nonce)
	b = appendBool(b, s.Value != nil)
	if s.Value != nil {
		var err error
		if b, err = appendValue(b, s.Value); err != nil {
			return nil, err
		}
	}
	return appendString(b, s.Err), nil
}

// DecodeStateResp decodes a state response payload.
func DecodeStateResp(b []byte) (*StateResp, error) {
	r := &reader{b: b}
	s := &StateResp{Corr: r.uvarint(), Found: r.bool(), Balance: r.big(), Nonce: r.uvarint()}
	if r.bool() {
		s.Value = r.value(0)
	}
	s.Err = r.string()
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}
