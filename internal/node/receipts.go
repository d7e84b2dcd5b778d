package node

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"cosplit/internal/chain"
)

// DefaultReceiptCap is how many receipts a lookup keeps unless
// LookupReceiptCap says otherwise.
const DefaultReceiptCap = 100_000

// ReceiptLog keeps the most recent receipts by transaction id, at most
// its capacity, evicting the longest-filed first. It is what a lookup
// answers "what happened to transaction id?" from: it files the
// receipts of the FinalBlocks it hears. It is the one place receipts
// are kept; the committee and the shard replicas keep none.
//
// The log owns what it holds. A receipt arrives decoded from a block
// (RawEvents set, no Events, no Err) and is copied out of the block on
// File: its header fields into a header array, its error text and
// event bytes into one byte string, both allocated per File call,
// neither containing a pointer. Once File returns, nothing in the log
// points into a frame or a FinalBlock, so a block is garbage as soon as
// its handler is done with it. A receipt evicted from the log is gone.
//
// Not synchronised: its owner's lock covers it.
type ReceiptLog struct {
	// index finds a receipt: which batch, which header.
	index   map[uint64]receiptLoc
	batches map[uint32]*receiptBatch
	// order is a ring of the filed ids; once it has grown to the log's
	// capacity, order[head] is the oldest and the next to be overwritten.
	order []uint64
	head  int
	limit int
	// next numbers the batches; bytes is what the live batches occupy.
	next  uint32
	bytes int
}

// receiptLoc places a receipt: hdrs[i] of batches[batch].
type receiptLoc struct{ batch, i uint32 }

// receiptBatch is the receipts of one File call. It is dropped whole
// when the last id it answers for is evicted or re-filed; until then it
// keeps the bytes of the ids that left before.
type receiptBatch struct {
	hdrs []packedReceipt
	data []byte
	// live counts the ids placed here, plus one while File is filling
	// the batch.
	live int
}

// packedReceipt is a chain.Receipt's fixed-size fields and where its
// text lies in the batch's data: the error at [off, off+errLen), the
// events from there to the next receipt's off.
type packedReceipt struct {
	id, gas, epoch uint64
	off, errLen    uint32
	shard          int32
	success        bool
}

// errUnfileable refuses a batch the log cannot hold as it is laid out.
var errUnfileable = errors.New("receipt log: unfileable receipt")

// NewReceiptLog returns an empty log keeping at most limit receipts
// (DefaultReceiptCap when limit <= 0).
func NewReceiptLog(limit int) *ReceiptLog {
	if limit <= 0 {
		limit = DefaultReceiptCap
	}
	return &ReceiptLog{
		index:   make(map[uint64]receiptLoc),
		batches: make(map[uint32]*receiptBatch),
		limit:   limit,
	}
}

// File adds receipts decoded from a block, oldest first. A receipt
// whose id is already on file (a re-delivered block) replaces the filed
// one and keeps its place in the eviction order. The log keeps no
// reference to a receipt or to the bytes it carries. It refuses the
// whole batch, filing none of it, when a receipt was not decoded from a
// block, or its shard does not fit 32 bits, or the batch's text does not
// fit 32-bit offsets (a frame's payload is far smaller).
func (l *ReceiptLog) File(recs []*chain.Receipt) error {
	size := uint64(0)
	for _, r := range recs {
		if r.RawEvents == nil || r.Events != nil || r.Err != nil {
			return fmt.Errorf("%w: receipt %d was not decoded from a block", errUnfileable, r.TxID)
		}
		if int64(r.Shard) != int64(int32(r.Shard)) {
			return fmt.Errorf("%w: receipt %d names shard %d", errUnfileable, r.TxID, r.Shard)
		}
		size += uint64(len(r.Error)) + uint64(len(r.RawEvents))
	}
	if size > math.MaxUint32 {
		return fmt.Errorf("%w: %d receipts carry %d bytes", errUnfileable, len(recs), size)
	}
	if len(recs) == 0 {
		return nil
	}
	at, b := l.newBatch(len(recs), int(size))
	for _, r := range recs {
		if !l.forget(r.TxID) {
			if len(l.order) < l.limit {
				l.order = append(l.order, r.TxID)
			} else {
				l.forget(l.order[l.head])
				l.order[l.head] = r.TxID
				l.head = (l.head + 1) % l.limit
			}
		}
		l.index[r.TxID] = receiptLoc{batch: at, i: uint32(len(b.hdrs))}
		b.hdrs = append(b.hdrs, packedReceipt{
			id: r.TxID, gas: r.GasUsed, epoch: r.Epoch,
			off: uint32(len(b.data)), errLen: uint32(len(r.Error)),
			shard: int32(r.Shard), success: r.Success,
		})
		b.data = append(append(b.data, r.Error...), r.RawEvents...)
		b.live++
	}
	l.release(at, b)
	return nil
}

// newBatch sizes and registers a batch for n receipts carrying size
// bytes of text.
func (l *ReceiptLog) newBatch(n, size int) (uint32, *receiptBatch) {
	b := &receiptBatch{hdrs: make([]packedReceipt, 0, n), data: make([]byte, 0, size), live: 1}
	for l.batches[l.next] != nil { // the numbering has wrapped onto a batch still alive
		l.next++
	}
	at := l.next
	l.next++
	l.batches[at] = b
	l.bytes += b.size()
	return at, b
}

func (b *receiptBatch) size() int {
	return cap(b.hdrs)*int(unsafe.Sizeof(packedReceipt{})) + cap(b.data)
}

// release takes one id's (or File's own) claim off a batch and drops
// the batch with its last.
func (l *ReceiptLog) release(at uint32, b *receiptBatch) {
	if b.live--; b.live == 0 {
		delete(l.batches, at)
		l.bytes -= b.size()
	}
}

// forget removes what is filed under id and reports whether anything
// was.
func (l *ReceiptLog) forget(id uint64) bool {
	loc, ok := l.index[id]
	if ok {
		delete(l.index, id)
		l.release(loc.batch, l.batches[loc.batch])
	}
	return ok
}

// Receipt returns the filed receipt for a transaction id, or nil if
// there is none or it has been evicted. It is made afresh on every
// call, its RawEvents a range of the log's own bytes; the caller must
// not modify them.
func (l *ReceiptLog) Receipt(id uint64) *chain.Receipt {
	loc, ok := l.index[id]
	if !ok {
		return nil
	}
	b := l.batches[loc.batch]
	h := &b.hdrs[loc.i]
	end := len(b.data)
	if int(loc.i)+1 < len(b.hdrs) {
		end = int(b.hdrs[loc.i+1].off)
	}
	events := int(h.off) + int(h.errLen)
	return &chain.Receipt{
		TxID: h.id, Success: h.success, GasUsed: h.gas, Epoch: h.epoch, Shard: int(h.shard),
		Error:     string(b.data[h.off:events]),
		RawEvents: b.data[events:end:end],
	}
}

// Len returns the number of receipts on file.
func (l *ReceiptLog) Len() int { return len(l.index) }

// Bytes returns what the log's receipts occupy: the header arrays and
// byte strings of the batches still answering for an id.
func (l *ReceiptLog) Bytes() int { return l.bytes }
