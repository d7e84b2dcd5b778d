package shard

import (
	"math"
	"unsafe"

	"cosplit/internal/chain"
)

// DefaultReceiptCap is how many receipts a ReceiptLog keeps unless told
// otherwise: every Network's log, and a lookup node's by default.
const DefaultReceiptCap = 100_000

// ReceiptLog keeps the most recent receipts by transaction id, at most
// its capacity, evicting the longest-filed first. It is what a role
// answers "what happened to transaction id?" from: the committee's and
// each replica's Network file every receipt of every block they commit
// or apply, a lookup node files the receipts of the FinalBlocks it
// hears.
//
// The log owns what it holds. A receipt that arrived in a block
// (RawEvents set, no Events, no Err) is copied out of the block on
// File: its header fields into a header array, its error text and
// event bytes into one byte string, both allocated per File call,
// neither containing a pointer. Once File returns, nothing in the log
// points into a frame, a MicroBlock or a FinalBlock, so a block is
// garbage as soon as its handler is done with it. A receipt the role
// built itself (the executor's, with Events and the typed Err) rests as
// built. A receipt evicted from the log is gone for that role.
//
// Not synchronised: its owner's lock covers it.
type ReceiptLog struct {
	// packed finds an arrived receipt: which batch, which header. An id
	// is in packed or in built, never both.
	packed  map[uint64]receiptLoc
	batches map[uint32]*receiptBatch
	built   map[uint64]*chain.Receipt
	// order is a ring of the filed ids; once it has grown to the log's
	// capacity, order[head] is the oldest and the next to be overwritten.
	order []uint64
	head  int
	limit int
	// next numbers the batches; bytes is what the live batches occupy.
	next  uint32
	bytes int
}

// receiptLoc places a packed receipt: hdrs[i] of batches[batch].
type receiptLoc struct{ batch, i uint32 }

// receiptBatch is the arrived receipts of one File call. It is dropped
// whole when the last id it answers for is evicted or re-filed; until
// then it keeps the bytes of the ids that left before.
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

// NewReceiptLog returns an empty log keeping at most limit receipts
// (DefaultReceiptCap when limit <= 0).
func NewReceiptLog(limit int) *ReceiptLog {
	if limit <= 0 {
		limit = DefaultReceiptCap
	}
	return &ReceiptLog{
		packed:  make(map[uint64]receiptLoc),
		batches: make(map[uint32]*receiptBatch),
		built:   make(map[uint64]*chain.Receipt),
		limit:   limit,
	}
}

// packable reports whether r is held packed: it arrived in a block, so
// its header fields and bytes are all there is to it. (The size bound
// is the batch's 32-bit offsets; frames are far smaller.)
func packable(r *chain.Receipt) bool {
	return r.RawEvents != nil && r.Events == nil && r.Err == nil &&
		textLen(r) <= math.MaxUint32 && int64(r.Shard) == int64(int32(r.Shard))
}

// textLen is how much of a batch's data a packed receipt takes.
func textLen(r *chain.Receipt) uint64 { return uint64(len(r.Error)) + uint64(len(r.RawEvents)) }

// File adds receipts, oldest first. A receipt whose id is already on
// file (a re-delivered block) replaces the filed one and keeps its
// place in the eviction order. The log keeps no reference to a packable
// receipt or to the bytes it carries.
func (l *ReceiptLog) File(recs []*chain.Receipt) {
	var b *receiptBatch
	var at uint32
	for i, r := range recs {
		if !l.forget(r.TxID) {
			if len(l.order) < l.limit {
				l.order = append(l.order, r.TxID)
			} else {
				l.forget(l.order[l.head])
				l.order[l.head] = r.TxID
				l.head = (l.head + 1) % l.limit
			}
		}
		if !packable(r) {
			l.built[r.TxID] = r
			continue
		}
		if b == nil || len(b.hdrs) == cap(b.hdrs) {
			l.release(at, b)
			at, b = l.newBatch(recs[i:])
		}
		l.packed[r.TxID] = receiptLoc{batch: at, i: uint32(len(b.hdrs))}
		b.hdrs = append(b.hdrs, packedReceipt{
			id: r.TxID, gas: r.GasUsed, epoch: r.Epoch,
			off: uint32(len(b.data)), errLen: uint32(len(r.Error)),
			shard: int32(r.Shard), success: r.Success,
		})
		b.data = append(append(b.data, r.Error...), r.RawEvents...)
		b.live++
	}
	l.release(at, b)
}

// newBatch sizes and registers a batch for the packable receipts among
// recs, as many as its offsets can address; File fills it in the same
// order, so it is full exactly where the count stopped.
func (l *ReceiptLog) newBatch(recs []*chain.Receipt) (uint32, *receiptBatch) {
	n, size := 0, uint64(0)
	for _, r := range recs {
		if !packable(r) {
			continue
		}
		if size+textLen(r) > math.MaxUint32 {
			break
		}
		n++
		size += textLen(r)
	}
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
	if b == nil {
		return
	}
	if b.live--; b.live == 0 {
		delete(l.batches, at)
		l.bytes -= b.size()
	}
}

// forget removes what is filed under id and reports whether anything
// was.
func (l *ReceiptLog) forget(id uint64) bool {
	if loc, ok := l.packed[id]; ok {
		delete(l.packed, id)
		l.release(loc.batch, l.batches[loc.batch])
		return true
	}
	if _, ok := l.built[id]; ok {
		delete(l.built, id)
		return true
	}
	return false
}

// Receipt returns the filed receipt for a transaction id, or nil if
// there is none or it has been evicted. A receipt the role built is the
// one it filed; one that arrived in a block is made afresh on every
// call, its RawEvents a range of the log's own bytes. The caller must
// not modify either.
func (l *ReceiptLog) Receipt(id uint64) *chain.Receipt {
	loc, ok := l.packed[id]
	if !ok {
		return l.built[id]
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
func (l *ReceiptLog) Len() int { return len(l.packed) + len(l.built) }

// Bytes returns what the log's packed receipts occupy: the header
// arrays and byte strings of the batches still answering for an id.
func (l *ReceiptLog) Bytes() int { return l.bytes }
