package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync/atomic"
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
	return finish(r, r.tx())
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
	_, tx.Amount = r.big(true)
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
		v := r.value(0, true)
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

// A receipt is its header fields, then its events: their count and each
// message. Decoding a block checks the events byte for byte (events,
// not building) but builds only the header and keeps the events as the
// bytes they arrived in (chain.Receipt.RawEvents, a range of the block's
// payload); encoding a receipt that carries such bytes copies them, so
// the DS committee passes a shard's receipts into the FinalBlock
// without building an event. A lookup builds no receipt at all: it
// records where each lies in the block's receipt section
// (DecodeReceiptSection), and its node.ReceiptLog codes the section
// into bytes of its own, which is where the aliasing ends, and rebuilds
// one receipt from them when asked (ReadReceipt). ReceiptEvents builds the events for whoever
// shows a receipt to a client.

func appendReceipt(b []byte, rec *chain.Receipt) ([]byte, error) {
	b = appendUvarint(b, rec.TxID)
	b = appendBool(b, rec.Success)
	b = appendUvarint(b, rec.GasUsed)
	b = appendString(b, rec.Error)
	b = appendVarint(b, int64(rec.Shard))
	b = appendUvarint(b, rec.Epoch)
	if rec.Events == nil && rec.RawEvents != nil {
		return append(b, rec.RawEvents...), nil
	}
	b = appendUvarint(b, uint64(len(rec.Events)))
	var err error
	for _, ev := range rec.Events {
		if b, err = appendValue(b, ev); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// receipts reads a block's receipt list. When build it decodes the
// receipts into one backing array; otherwise it checks every byte of
// them, builds nothing, and, when sec is not nil, records in sec where
// each receipt lies.
func (r *reader) receipts(build bool, sec *ReceiptSection) []*chain.Receipt {
	n := r.count(6)
	if n == 0 || !build {
		section, rec := r.b, chain.Receipt{}
		if sec != nil {
			sec.Bytes, sec.Receipts = section, slices.Grow(sec.Receipts[:0], n)
		}
		for ; n > 0 && r.err == nil; n-- {
			off := len(section) - len(r.b)
			r.receipt(&rec, false)
			if sec != nil {
				sec.Receipts = append(sec.Receipts, ReceiptRange{ID: rec.TxID, Off: off})
			}
		}
		return nil
	}
	recs := make([]chain.Receipt, n)
	out := make([]*chain.Receipt, n)
	for i := range recs {
		if r.receipt(&recs[i], true); r.err != nil {
			return nil
		}
		out[i] = &recs[i]
	}
	return out
}

// receipt reads one receipt's header fields into rec and checks its
// events. When build it also keeps the error text and the events, as
// the bytes they arrived in.
func (r *reader) receipt(rec *chain.Receipt, build bool) {
	rec.TxID = r.uvarint()
	rec.Success = r.bool()
	rec.GasUsed = r.uvarint()
	if text := r.skip(); build {
		rec.Error = string(text)
	}
	rec.Shard = int(r.varint())
	rec.Epoch = r.uvarint()
	events := r.b
	r.events(false)
	if build && r.err == nil {
		n := len(events) - len(r.b)
		rec.RawEvents = events[:n:n]
	}
}

// ReceiptRange places one receipt in a block's receipt section: the
// transaction it is for and the offset its bytes start at.
type ReceiptRange struct {
	ID  uint64
	Off int
}

// ReceiptSection is what a role without a state replica reads of a
// FinalBlock (DecodeReceiptSection): its epoch, its root and where its
// receipts lie, none of them built.
type ReceiptSection struct {
	Epoch     uint64
	StateRoot string
	// Bytes is the block's receipts back to back, as they arrived: the
	// payload's tail after the receipt count, a range of the payload.
	Bytes []byte
	// Receipts places each receipt in Bytes, in block order.
	Receipts []ReceiptRange
}

// ReadReceipt builds the receipt at the start of b — a receipt
// section from a ReceiptRange's offset on — and ignores the bytes
// after it. Its RawEvents are a range of b.
func ReadReceipt(b []byte) (*chain.Receipt, error) {
	r := &reader{b: b}
	rec := &chain.Receipt{}
	if r.receipt(rec, true); r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

// ReceiptEvents returns a receipt's events as messages: the executor's
// own when the receipt was built in this process, otherwise decoded from
// the bytes the receipt arrived in. Each call on such a receipt builds
// them afresh — receipts are shared between a role's actor and its
// readers, and nothing is written back into one.
func ReceiptEvents(rec *chain.Receipt) ([]value.Msg, error) {
	if rec.Events != nil || rec.RawEvents == nil {
		return rec.Events, nil
	}
	eventDecodes.Add(1)
	r := &reader{b: rec.RawEvents}
	return finish(r, r.events(true))
}

// events reads a receipt's event list, each event a message, building
// the messages only when build.
func (r *reader) events(build bool) []value.Msg {
	n, events := items[value.Msg](r, 1, build)
	for ; n > 0 && r.err == nil; n-- {
		if len(r.b) > 0 && r.b[0] != tagMsg {
			r.fail("receipt event is not a message")
		}
		if msg, _ := r.value(0, build).(value.Msg); build {
			events = append(events, msg)
		}
	}
	return events
}

// --- StateDelta ---

// EncodeStateDelta encodes one shard's per-contract state delta.
func EncodeStateDelta(d *chain.StateDelta) ([]byte, error) {
	return appendStateDelta(make([]byte, 0, hintDeltas([]*chain.StateDelta{d})), d)
}

func appendStateDelta(b []byte, d *chain.StateDelta) ([]byte, error) {
	b = appendAddr(b, d.Contract)
	b = appendVarint(b, int64(d.Shard))
	b = appendUvarint(b, uint64(len(d.Fields)))
	var err error
	for i := range d.Fields {
		fd := &d.Fields[i]
		b = appendString(b, fd.Name)
		b = appendBool(b, fd.Whole != nil)
		if fd.Whole != nil {
			if b, err = appendEntryDelta(b, fd.Whole); err != nil {
				return nil, err
			}
		}
		b = appendUvarint(b, uint64(len(fd.Entries)))
		for j := range fd.Entries {
			e := &fd.Entries[j]
			b = appendString(b, e.Keypath)
			if b, err = appendEntryDelta(b, e); err != nil {
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
	return finish(r, r.stateDelta(true))
}

// stateDelta reads one contract's delta, building it only when build.
// Either way it must be canonical (chain.StateDelta). A field takes 3
// bytes at least, an entry 5.
func (r *reader) stateDelta(build bool) *chain.StateDelta {
	contract, sh := r.addr(), int(r.varint())
	nf, fields := items[chain.FieldDelta](r, 3, build)
	var name []byte
	for i := 0; i < nf && r.err == nil; i++ {
		name = r.after(name, i == 0, "field")
		var whole *chain.EntryDelta
		if r.bool() {
			whole = r.entryDelta(nil, build)
		}
		ne, entries := items[chain.EntryDelta](r, 5, build)
		var kp []byte
		for j := 0; j < ne && r.err == nil; j++ {
			kp = r.after(kp, j == 0, "keypath")
			if e := r.entryDelta(kp, build); build && r.err == nil {
				entries = append(entries, *e)
			}
		}
		if build && r.err == nil {
			fields = append(fields, chain.FieldDelta{Name: string(name), Whole: whole, Entries: entries})
		}
	}
	if !build || r.err != nil {
		return nil
	}
	return &chain.StateDelta{Contract: contract, Shard: sh, Fields: fields}
}

// after reads a field name or keypath, which must sort after prev, the
// one read before it, unless it is the first.
func (r *reader) after(prev []byte, first bool, what string) []byte {
	b := r.skip()
	if !first && bytes.Compare(prev, b) >= 0 {
		r.fail("%s %q does not follow %q", what, b, prev)
	}
	return b
}

// entryDelta reads one entry's change, building it only when build.
// kp is the keypath the entry is filed under, nil for a field's Whole
// change; the keys are rendered (key) either way, and kp must be their
// keypath.
func (r *reader) entryDelta(kp []byte, build bool) *chain.EntryDelta {
	kind := r.byte()
	if kind > byte(chain.Delete) {
		r.fail("bad delta kind %d", kind)
	}
	n, keys := items[value.Value](r, 1, build)
	r.kp = r.kp[:0]
	for i := 0; i < n && r.err == nil; i++ {
		if i > 0 {
			r.kp = append(r.kp, chain.KeypathSep...)
		}
		if k := r.key(build); build {
			keys = append(keys, k)
		}
	}
	if kp != nil && !bytes.Equal(kp, r.kp) {
		r.fail("keypath %q is not its keys' %q", kp, string(r.kp))
	}
	var v value.Value
	if r.bool() {
		v = r.value(0, build)
	}
	_, delta := r.big(build)
	if !build || r.err != nil {
		return nil
	}
	return &chain.EntryDelta{Kind: chain.DeltaKind(kind), Keypath: string(kp), Keys: keys, Value: v, Delta: delta}
}

// key reads one key of an entry, building it only when build, and
// appends its canonical form to r.kp: from its bytes for a String or
// byte-string key, so checking a token block's keypaths builds nothing,
// and from the key built for any other kind.
func (r *reader) key(build bool) value.Value {
	raw := r.b
	k := r.value(0, build)
	switch {
	case r.err != nil:
	case k != nil:
		r.kp = value.AppendCanonicalKey(r.kp, k)
	case raw[0] == tagStr:
		r.kp = value.AppendStrKey(r.kp, (&reader{b: raw[1:]}).skip())
	case raw[0] == tagByStr:
		r.kp = hex.AppendEncode(append(r.kp, "b:0x"...), (&reader{b: raw[2:]}).skip())
	default:
		r.kp = value.AppendCanonicalKey(r.kp, (&reader{b: raw}).value(0, true))
	}
	return k
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

// stateDeltas reads a block's state-delta section, building it only
// when build: a role that files a block's receipts and has no state to
// merge its deltas into still has a corrupt section fail the block.
func (r *reader) stateDeltas(build bool) []*chain.StateDelta {
	n, ds := items[*chain.StateDelta](r, 22, build)
	for ; n > 0 && r.err == nil; n-- {
		if d := r.stateDelta(build); build {
			ds = append(ds, d)
		}
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

func appendAccountDelta(b []byte, d *chain.AccountDelta) []byte {
	addrs := make([]chain.Address, 0, len(d.BalanceDeltas))
	for a := range d.BalanceDeltas {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, addrCmp)
	b = appendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendAddr(b, a)
		b = appendBig(b, d.BalanceDeltas[a])
	}
	addrs = addrs[:0]
	for a := range d.Nonces {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, addrCmp)
	b = appendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendAddr(b, a)
		b = appendUvarint(b, d.Nonces[a])
	}
	return b
}

// optAccountDelta reads a possibly absent account delta, building it
// only when build.
func (r *reader) optAccountDelta(build bool) *chain.AccountDelta {
	if !r.bool() {
		return nil
	}
	var d *chain.AccountDelta
	if build {
		d = chain.NewAccountDelta()
	}
	// The addresses stay ranges of the payload unless built.
	for n := r.count(21); n > 0 && r.err == nil; n-- {
		a := r.addrBytes()
		v, kept := r.big(build)
		if r.err == nil && v == nil {
			r.fail("nil balance delta")
		}
		if build && r.err == nil {
			d.BalanceDeltas[chain.Address(a)] = kept
		}
	}
	for n := r.count(21); n > 0 && r.err == nil; n-- {
		a, nonce := r.addrBytes(), r.uvarint()
		if build && r.err == nil {
			d.Nonces[chain.Address(a)] = nonce
		}
	}
	if r.err != nil {
		return nil
	}
	return d
}

// addrCmp orders addresses bytewise, as the store orders snapshot rows.
func addrCmp(a, b chain.Address) int { return bytes.Compare(a[:], b[:]) }

// --- MicroBlock ---

// Size estimates, in bytes: a receipt's header, an
// event the executor built, one delta entry (keypath, key values, the
// change), one account-delta row, one deferred transaction. A block of
// token transfers measures 9 + 105, 75, 30 and ~150.
const (
	hintReceipt = 16
	hintEvent   = 128
	hintEntry   = 96
	hintAccount = 40
	hintTx      = 192
)

// The encoders size their buffer from the block's counts with these, so
// it is allocated once instead of doubling its way up; an estimate that
// falls short only costs the append its usual growth.

func hintReceipts(recs []*chain.Receipt) int {
	n := 0
	for _, rec := range recs {
		n += hintReceipt + len(rec.Error) + len(rec.RawEvents) + hintEvent*len(rec.Events)
	}
	return n
}

func hintDeltas(ds []*chain.StateDelta) int {
	n := 0
	for _, d := range ds {
		n += 32 + hintEntry*d.Size()
	}
	return n
}

func hintAccounts(a *chain.AccountDelta) int {
	if a == nil {
		return 0
	}
	return hintAccount * (len(a.BalanceDeltas) + len(a.Nonces))
}

func appendReceipts(b []byte, recs []*chain.Receipt) ([]byte, error) {
	b = appendUvarint(b, uint64(len(recs)))
	var err error
	for _, rec := range recs {
		if b, err = appendReceipt(b, rec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeMicroBlock encodes a sealed MicroBlock.
func EncodeMicroBlock(mb *shard.MicroBlock) ([]byte, error) {
	b := make([]byte, 0, 64+hintReceipts(mb.Receipts)+hintDeltas(mb.Deltas)+hintAccounts(mb.Accounts)+hintTx*len(mb.Deferred))
	b = appendVarint(b, int64(mb.Shard))
	b = appendUvarint(b, mb.Epoch)
	b = appendUvarint(b, mb.GasUsed)
	b = appendUvarint(b, uint64(mb.ExecTime))
	var err error
	if b, err = appendReceipts(b, mb.Receipts); err != nil {
		return nil, err
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

// DecodeMicroBlock decodes a MicroBlock payload. The block's receipts
// keep their events as ranges of b, which the caller must not write to
// afterwards.
func DecodeMicroBlock(b []byte) (*shard.MicroBlock, error) {
	r := &reader{b: b}
	return finish(r, &shard.MicroBlock{
		Shard: int(r.varint()), Epoch: r.uvarint(), GasUsed: r.uvarint(), ExecTime: time.Duration(r.uvarint()),
		Receipts: r.receipts(true, nil), Deltas: r.stateDeltas(true), Accounts: r.optAccountDelta(true),
		Deferred: r.txs(),
	})
}

// txs reads a transaction list.
func (r *reader) txs() []*chain.Tx {
	n, txs := items[*chain.Tx](r, 45, true)
	for ; n > 0 && r.err == nil; n-- {
		txs = append(txs, r.tx())
	}
	return txs
}

// --- FinalBlock ---

// finalBlockEncodes and eventDecodes count, process-wide and only ever
// upwards, the two conversions a sealed block is meant to pay at most
// once and only on demand; Counts reads them.
var finalBlockEncodes, eventDecodes atomic.Uint64

// CodecCounts is a reading of the codec's conversion counters.
type CodecCounts struct {
	// FinalBlockEncodes is how many times a FinalBlock's fields were
	// encoded (EncodeFinalBlock, directly or through SealedFinalBlock).
	FinalBlockEncodes uint64
	// EventDecodes is how many receipts had their events built from
	// bytes (ReceiptEvents).
	EventDecodes uint64
}

// Counts reads the conversion counters. A test takes the difference of
// two readings around a flow to pin how often the flow converted.
func Counts() CodecCounts {
	return CodecCounts{FinalBlockEncodes: finalBlockEncodes.Load(), EventDecodes: eventDecodes.Load()}
}

// EncodeFinalBlock encodes a DS-committed FinalBlock from its fields:
// epoch, root, the shard phase (deltas, account delta), the DS phase
// (the same pair), receipts. Roles that journal, broadcast or serve a
// block use SealedFinalBlock, which does this once per block.
func EncodeFinalBlock(fb *shard.FinalBlock) ([]byte, error) {
	finalBlockEncodes.Add(1)
	b := make([]byte, 0, 64+len(fb.StateRoot)+hintReceipts(fb.Receipts)+
		hintDeltas(fb.Deltas)+hintAccounts(fb.Accounts)+hintDeltas(fb.DSDeltas)+hintAccounts(fb.DSAccounts))
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
	return appendReceipts(b, fb.Receipts)
}

// SealedFinalBlock returns the block's one byte string: the payload it
// was decoded from, or the encoding an earlier call made. The first
// call on a block built in memory encodes it and seals the block with
// the result, so the committee's journal, its broadcast and its
// catch-up ring share one encoding, and a replica journals what it
// received. A block whose fields were reassigned after sealing is
// encoded again (shard.FinalBlock.Sealed).
func SealedFinalBlock(fb *shard.FinalBlock) ([]byte, error) {
	if b := fb.Sealed(); b != nil {
		return b, nil
	}
	b, err := EncodeFinalBlock(fb)
	if err != nil {
		return nil, err
	}
	fb.Seal(b)
	return b, nil
}

// DecodeFinalBlock decodes a FinalBlock payload and seals the block
// with it: b is the block's byte string from here on (its receipts'
// events are ranges of it), and the caller must not write to it
// afterwards.
func DecodeFinalBlock(b []byte) (*shard.FinalBlock, error) {
	return sealedBlock(b, true, true)
}

// DecodeFinalBlockState reads a FinalBlock payload the way a replica
// applies it: every byte is checked as DecodeFinalBlock checks it, and
// of the block its epoch, its root and its four state sections are
// built — no receipt, which a replica does not keep (the lookup files
// them). The block is sealed with b, so a replica journals and serves
// the bytes it received, receipts and all; the caller must not write to
// b afterwards.
func DecodeFinalBlockState(b []byte) (*shard.FinalBlock, error) {
	return sealedBlock(b, true, false)
}

// DecodeReceiptSection reads a FinalBlock payload the way a role
// without a state replica does: every byte is checked as
// DecodeFinalBlock checks it, and nothing of the block is built — no
// StateDelta, no AccountDelta, no receipt. It records the epoch, the
// root and where each receipt lies into s, reusing s.Receipts' array;
// s.Bytes is a range of b, from which ReadReceipt builds a receipt.
func DecodeReceiptSection(b []byte, s *ReceiptSection) error {
	var fb shard.FinalBlock
	if err := decodeFinalBlock(b, &fb, false, false, s); err != nil {
		s.Bytes, s.Receipts = nil, s.Receipts[:0]
		return err
	}
	s.Epoch, s.StateRoot = fb.Epoch, fb.StateRoot
	return nil
}

// sealedBlock decodes a FinalBlock payload, building its state sections
// and its receipts as asked, and seals the block with it.
func sealedBlock(b []byte, state, receipts bool) (*shard.FinalBlock, error) {
	fb := &shard.FinalBlock{}
	if err := decodeFinalBlock(b, fb, state, receipts, nil); err != nil {
		return nil, err
	}
	fb.Seal(b)
	return fb, nil
}

// decodeFinalBlock reads a FinalBlock payload into fb, building the
// four state sections only when state and the receipts only when
// receipts; what it does not build it checks byte for byte, and where
// the receipts lie it records in sec when sec is not nil.
func decodeFinalBlock(b []byte, fb *shard.FinalBlock, state, receipts bool, sec *ReceiptSection) error {
	r := &reader{b: b}
	fb.Epoch = r.uvarint()
	fb.StateRoot = r.string()
	fb.Deltas = r.stateDeltas(state)
	fb.Accounts = r.optAccountDelta(state)
	fb.DSDeltas = r.stateDeltas(state)
	fb.DSAccounts = r.optAccountDelta(state)
	fb.Receipts = r.receipts(receipts, sec)
	_, err := finish(r, fb)
	return err
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
	return finish(r, &TxBatch{Epoch: r.uvarint(), Shard: int(r.varint()), Txs: r.txs()})
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
	return finish(r, &Submit{Corr: r.uvarint(), Tx: r.tx()})
}

// SubmitResp answers a Submit: the assigned transaction id, or an
// error message. The committee here never refuses a submission, but
// Err stays in the format and a lookup reports it as a refusal.
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
	return finish(r, &SubmitResp{Corr: r.uvarint(), ID: r.uvarint(), Err: r.string()})
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
	return finish(r, &StateQuery{Corr: r.uvarint(), Addr: r.addr(), Field: r.string(), Key: r.string()})
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
	s := &StateResp{Corr: r.uvarint(), Found: r.bool()}
	_, s.Balance = r.big(true)
	s.Nonce = r.uvarint()
	if r.bool() {
		s.Value = r.value(0, true)
	}
	s.Err = r.string()
	return finish(r, s)
}
