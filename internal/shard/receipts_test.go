package shard

import (
	"math/big"
	"testing"

	"cosplit/internal/chain"
)

func receiptRun(from, to uint64) []*chain.Receipt {
	var recs []*chain.Receipt
	for id := from; id < to; id++ {
		recs = append(recs, &chain.Receipt{TxID: id, Success: true})
	}
	return recs
}

// TestReceiptLog: the log keeps the newest receipts up to its
// capacity, evicts in filing order, forgets what it evicted, and a
// re-delivered block neither grows it nor pushes anything out.
func TestReceiptLog(t *testing.T) {
	const limit = 10
	l := NewReceiptLog(limit)
	l.File(receiptRun(1, 8))
	if l.Len() != 7 || l.Receipt(1) == nil || l.Receipt(8) != nil {
		t.Fatalf("after 7 receipts: len %d, first %v, unfiled %v", l.Len(), l.Receipt(1), l.Receipt(8))
	}

	// Re-delivery: same ids, new objects. The newer object answers, the
	// count and the eviction order stay.
	again := receiptRun(1, 8)
	again[0].Error = "second delivery"
	l.File(again)
	if l.Len() != 7 || l.Receipt(1) != again[0] {
		t.Fatalf("re-delivered block: len %d, receipt 1 %+v", l.Len(), l.Receipt(1))
	}

	// One block that overflows the cap inserts and evicts in the same
	// stroke: 7 + 8 filed, the oldest 5 gone, ids 6..15 left.
	l.File(receiptRun(8, 16))
	if l.Len() != limit {
		t.Fatalf("len %d after overflowing, want %d", l.Len(), limit)
	}
	for id := uint64(1); id < 16; id++ {
		if got, want := l.Receipt(id) != nil, id >= 6; got != want {
			t.Errorf("receipt %d on file = %v, want %v", id, got, want)
		}
	}

	// Evicted means forgotten: filing an evicted id again is a new
	// entry at the young end, which pushes out the current oldest.
	l.File(receiptRun(2, 3))
	if l.Receipt(2) == nil || l.Receipt(6) != nil || l.Receipt(7) == nil || l.Len() != limit {
		t.Fatalf("after re-filing an evicted id: 2=%v 6=%v 7=%v len %d", l.Receipt(2), l.Receipt(6), l.Receipt(7), l.Len())
	}

	// Many laps of the ring: always the newest `limit`.
	l.File(receiptRun(100, 100+7*limit+3))
	for id := uint64(100); id < 100+7*limit+3; id++ {
		if got, want := l.Receipt(id) != nil, id >= 100+6*limit+3; got != want {
			t.Errorf("after laps: receipt %d on file = %v, want %v", id, got, want)
		}
	}
	if l.Receipt(2) != nil || l.Len() != limit {
		t.Errorf("after laps: len %d, receipt 2 %v", l.Len(), l.Receipt(2))
	}

	if got := NewReceiptLog(0).limit; got != DefaultReceiptCap {
		t.Errorf("default capacity %d, want %d", got, DefaultReceiptCap)
	}
}

// TestNetworkReceiptsBounded: a network's own receipts go through the
// same log — Receipt answers for what it ran, with the executor's
// events, until DefaultReceiptCap newer receipts have been filed.
func TestNetworkReceiptsBounded(t *testing.T) {
	net := NewNetwork(WithShards(2))
	net.receipts = NewReceiptLog(4)
	a, b := chain.AddrFromUint(1), chain.AddrFromUint(2)
	net.CreateUser(a, 1<<40)
	net.CreateUser(b, 1<<40)
	var ids []uint64
	for nonce := uint64(1); nonce <= 6; nonce++ {
		ids = append(ids, net.Submit(&chain.Tx{Kind: chain.TxTransfer, From: a, To: b, Nonce: nonce,
			Amount: big.NewInt(1), GasLimit: 10, GasPrice: 1}))
		if _, err := net.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		rec := net.Receipt(id)
		if got, want := rec != nil, i >= 2; got != want {
			t.Errorf("receipt %d on file = %v, want %v", id, got, want)
		}
		if rec != nil && (!rec.Success || rec.RawEvents != nil) {
			t.Errorf("receipt %d: %+v, want the executor's own", id, rec)
		}
	}
}
