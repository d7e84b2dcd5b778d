package shard

import "cosplit/internal/chain"

// DefaultReceiptCap is how many receipts a ReceiptLog keeps unless told
// otherwise: every Network's log, and a lookup node's by default.
const DefaultReceiptCap = 100_000

// ReceiptLog keeps the most recent receipts by transaction id, at most
// its capacity, evicting the longest-filed first. It is what a role
// answers "what happened to transaction id?" from: the committee's and
// each replica's Network file every receipt of every block they commit
// or apply, a lookup node files the receipts of the FinalBlocks it
// hears. A receipt that arrived in a block rests here as decoded header
// fields plus its events' bytes (chain.Receipt.RawEvents), so the log
// pins the payloads of the blocks it still covers and no event graphs.
// A receipt evicted from the log is gone for that role.
//
// Not synchronised: its owner's lock covers it.
type ReceiptLog struct {
	byID map[uint64]*chain.Receipt
	// order is a ring of the filed ids; once it has grown to the log's
	// capacity, order[head] is the oldest and the next to be overwritten.
	order []uint64
	head  int
	limit int
}

// NewReceiptLog returns an empty log keeping at most limit receipts
// (DefaultReceiptCap when limit <= 0).
func NewReceiptLog(limit int) *ReceiptLog {
	if limit <= 0 {
		limit = DefaultReceiptCap
	}
	return &ReceiptLog{byID: make(map[uint64]*chain.Receipt), limit: limit}
}

// File adds receipts, oldest first. A receipt whose id is already on
// file (a re-delivered block) replaces the filed one and keeps its
// place in the eviction order.
func (l *ReceiptLog) File(recs []*chain.Receipt) {
	for _, r := range recs {
		if _, known := l.byID[r.TxID]; !known {
			if len(l.order) < l.limit {
				l.order = append(l.order, r.TxID)
			} else {
				delete(l.byID, l.order[l.head])
				l.order[l.head] = r.TxID
				l.head = (l.head + 1) % l.limit
			}
		}
		l.byID[r.TxID] = r
	}
}

// Receipt returns the filed receipt for a transaction id, or nil if
// there is none or it has been evicted. The caller must not modify it.
func (l *ReceiptLog) Receipt(id uint64) *chain.Receipt { return l.byID[id] }

// Len returns the number of receipts on file.
func (l *ReceiptLog) Len() int { return len(l.byID) }
