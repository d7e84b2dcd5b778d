package node

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// receiptRun makes a block's worth of receipts as a decoder leaves
// them: header fields and the events' bytes (here, no event).
func receiptRun(from, to uint64) []*chain.Receipt {
	var recs []*chain.Receipt
	for id := from; id < to; id++ {
		recs = append(recs, &chain.Receipt{TxID: id, Success: true, RawEvents: []byte{0}})
	}
	return recs
}

// file files recs into l and fails the test if the log refuses them.
func file(tb testing.TB, l *ReceiptLog, recs []*chain.Receipt) {
	tb.Helper()
	if err := l.File(recs); err != nil {
		tb.Fatal(err)
	}
}

// TestReceiptLog: the log keeps the newest receipts up to its
// capacity, evicts in filing order, forgets what it evicted, and a
// re-delivered block neither grows it nor pushes anything out.
func TestReceiptLog(t *testing.T) {
	const limit = 10
	l := NewReceiptLog(limit)
	file(t, l, receiptRun(1, 8))
	if l.Len() != 7 || l.Receipt(1) == nil || l.Receipt(8) != nil {
		t.Fatalf("after 7 receipts: len %d, first %v, unfiled %v", l.Len(), l.Receipt(1), l.Receipt(8))
	}

	// Re-delivery: same ids, new content. The newer content answers, the
	// count and the eviction order stay.
	again := receiptRun(1, 8)
	again[0].Error = "second delivery"
	file(t, l, again)
	if r := l.Receipt(1); l.Len() != 7 || r.Error != again[0].Error {
		t.Fatalf("re-delivered block: len %d, receipt 1 %+v", l.Len(), r)
	}

	// One block that overflows the cap inserts and evicts in the same
	// stroke: 7 + 8 filed, the oldest 5 gone, ids 6..15 left.
	file(t, l, receiptRun(8, 16))
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
	file(t, l, receiptRun(2, 3))
	if l.Receipt(2) == nil || l.Receipt(6) != nil || l.Receipt(7) == nil || l.Len() != limit {
		t.Fatalf("after re-filing an evicted id: 2=%v 6=%v 7=%v len %d", l.Receipt(2), l.Receipt(6), l.Receipt(7), l.Len())
	}

	// Many laps of the ring: always the newest `limit`.
	file(t, l, receiptRun(100, 100+7*limit+3))
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

// TestReceiptLogRefusesWhatNoBlockCarries: a receipt the executor built
// (Events, a typed Err, no RawEvents) or one naming a shard beyond 32
// bits is not something a decoded block holds; the log refuses the
// whole batch and files none of it.
func TestReceiptLogRefusesWhatNoBlockCarries(t *testing.T) {
	for name, bad := range map[string]*chain.Receipt{
		"built":       {TxID: 9, Success: true, Events: []value.Msg{}},
		"typed error": {TxID: 9, Error: "out of gas", Err: shard.ErrGasExhausted, RawEvents: []byte{0}},
		"no events":   {TxID: 9, Success: true},
		"wide shard":  {TxID: 9, Shard: 1 << 40, RawEvents: []byte{0}},
	} {
		l := NewReceiptLog(0)
		if err := l.File(append(receiptRun(1, 4), bad)); !errors.Is(err, errUnfileable) {
			t.Errorf("%s: File returned %v, want errUnfileable", name, err)
		}
		if l.Len() != 0 || l.Bytes() != 0 || len(l.batches) != 0 {
			t.Errorf("%s: a refused batch left %d receipts in %d bytes", name, l.Len(), l.Bytes())
		}
	}
}

// arrivedRun makes receipts as a block decoder leaves them: header
// fields and the events' bytes, no Events, no Err. salt varies the
// content, so a re-delivery can be told from the first.
func arrivedRun(rng *rand.Rand, ids []uint64, salt byte) []*chain.Receipt {
	recs := make([]*chain.Receipt, len(ids))
	for i, id := range ids {
		raw := make([]byte, 1+rng.Intn(40), 64) // spare capacity: the log must not keep it
		for k := range raw {
			raw[k] = byte(id) ^ salt ^ byte(k)
		}
		recs[i] = &chain.Receipt{TxID: id, GasUsed: id * 3, Epoch: id / 7, Shard: int(id%5) - 1, RawEvents: raw}
		if recs[i].Success = id%3 != 0; !recs[i].Success {
			recs[i].Error = fmt.Sprintf("tx %d refused (%d)", id, salt)
		}
	}
	return recs
}

// TestReceiptLogAgainstModel files random blocks of receipts,
// re-deliveries and cap overflows into the log and into the plainest
// thing that meets its contract — a map and a slice of ids — and
// requires the same ids on file with the same content after every
// call. Then laps of equal blocks: the batches whose ids have all left
// are gone.
func TestReceiptLogAgainstModel(t *testing.T) {
	const limit, ids = 64, 400
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewReceiptLog(limit)
		model := map[uint64]*chain.Receipt{}
		var order []uint64
		check := func(step int) {
			t.Helper()
			if l.Len() != len(model) || len(order) != len(model) {
				t.Fatalf("seed %d step %d: %d on file, model holds %d", seed, step, l.Len(), len(model))
			}
			held := 0
			for _, b := range l.batches {
				held += b.size()
				if b.live <= 0 || b.live > len(b.hdrs) {
					t.Fatalf("seed %d step %d: a batch of %d answers for %d ids", seed, step, len(b.hdrs), b.live)
				}
			}
			if l.Bytes() != held || (len(l.index) == 0) != (held == 0) {
				t.Fatalf("seed %d step %d: Bytes %d, live batches hold %d for %d ids", seed, step, l.Bytes(), held, len(l.index))
			}
			for id := uint64(0); id < ids; id++ {
				got, want := l.Receipt(id), model[id]
				if want == nil {
					if got != nil {
						t.Fatalf("seed %d step %d: evicted receipt %d still answers", seed, step, id)
					}
					continue
				}
				if got == want || !reflect.DeepEqual(got, want) || cap(got.RawEvents) != len(got.RawEvents) {
					t.Fatalf("seed %d step %d: receipt %d\n %+v\nwant a copy of\n %+v", seed, step, id, got, want)
				}
			}
		}
		for step := 0; step < 300; step++ {
			// A block: a run of ids from a random start — fresh, on file
			// or evicted as it falls — sometimes longer than the cap,
			// sometimes naming an id twice.
			n := 1 + rng.Intn(24)
			if rng.Intn(10) == 0 {
				n = limit + rng.Intn(limit)
			}
			run := make([]uint64, n)
			for i := range run {
				run[i] = (uint64(rng.Intn(ids)) + uint64(i)) % ids
				if i > 0 && rng.Intn(8) > 0 {
					run[i] = (run[i-1] + 1) % ids
				}
			}
			recs := arrivedRun(rng, run, byte(step))
			file(t, l, recs)
			for _, r := range recs {
				if model[r.TxID] == nil {
					if len(order) == limit {
						delete(model, order[0])
						order = order[1:]
					}
					order = append(order, r.TxID)
				}
				model[r.TxID] = r
			}
			check(step)
		}

		// Laps: blocks of 10 fresh ids. At most ⌈limit/10⌉ batches hold
		// the ids on file, plus the one the oldest ids are leaving.
		const block = 10
		for lap, id := 0, uint64(1000); lap < 5*limit/block; lap++ {
			run := make([]uint64, block)
			for i := range run {
				run[i], id = id, id+1
			}
			file(t, l, arrivedRun(rng, run, 0))
		}
		if most := (limit+block-1)/block + 1; len(l.batches) > most || l.Len() != limit {
			t.Fatalf("seed %d: after laps %d batches live (want at most %d), %d on file",
				seed, len(l.batches), most, l.Len())
		}
	}
}
