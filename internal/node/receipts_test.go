package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// receiptRun makes a block's worth of receipts: header fields, no
// event.
func receiptRun(from, to uint64) []*chain.Receipt {
	var recs []*chain.Receipt
	for id := from; id < to; id++ {
		recs = append(recs, &chain.Receipt{TxID: id, Success: true})
	}
	return recs
}

// receiptBlock encodes recs as a FinalBlock's receipts and returns the
// payload.
func receiptBlock(tb testing.TB, recs []*chain.Receipt) []byte {
	tb.Helper()
	payload, err := wire.EncodeFinalBlock(&shard.FinalBlock{Epoch: 1, StateRoot: "root", Receipts: recs})
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// filePayload files a FinalBlock payload into l the way a lookup does,
// from a copy of its own that is overwritten once File returns, and
// returns the block's receipts as the building decoder reads them.
func filePayload(tb testing.TB, l *ReceiptLog, payload []byte) []*chain.Receipt {
	tb.Helper()
	frame := bytes.Clone(payload)
	sec := sectionOf(tb, frame)
	if err := l.File(sec.Bytes, sec.Receipts); err != nil {
		tb.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return fb.Receipts
}

// file files recs into l as one block; see filePayload.
func file(tb testing.TB, l *ReceiptLog, recs []*chain.Receipt) []*chain.Receipt {
	tb.Helper()
	return filePayload(tb, l, receiptBlock(tb, recs))
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

// TestReceiptLogRefusesWhatNoBlockCarries: File takes a receipt section
// and where its receipts lie, as the read of a block records them:
// ranges that start the section, ascend and end inside it, receipts
// only with bytes and bytes only with receipts. Anything else is no
// block's; the log refuses it whole and files none of it.
func TestReceiptLogRefusesWhatNoBlockCarries(t *testing.T) {
	sec := sectionOf(t, receiptBlock(t, receiptRun(1, 4)))
	at := func(offs ...int) []wire.ReceiptRange {
		recs := slices.Clone(sec.Receipts)
		for i, off := range offs {
			recs[i].Off = off
		}
		return recs
	}
	end := len(sec.Bytes)
	for name, bad := range map[string]struct {
		section []byte
		recs    []wire.ReceiptRange
	}{
		"not from the start":     {sec.Bytes, at(1)},
		"out of order":           {sec.Bytes, at(0, sec.Receipts[2].Off, sec.Receipts[1].Off)},
		"an offset twice":        {sec.Bytes, at(0, sec.Receipts[1].Off, sec.Receipts[1].Off)},
		"past the end":           {sec.Bytes, at(0, sec.Receipts[1].Off, end)},
		"receipts without bytes": {nil, sec.Receipts},
		"bytes without receipts": {sec.Bytes, nil},
	} {
		l := NewReceiptLog(0)
		if err := l.File(bad.section, bad.recs); !errors.Is(err, errUnfileable) {
			t.Errorf("%s: File returned %v, want errUnfileable", name, err)
		}
		if l.Len() != 0 || l.Bytes() != 0 || len(l.blocks) != 0 {
			t.Errorf("%s: a refused block left %d receipts in %d bytes", name, l.Len(), l.Bytes())
		}
	}
	if err := NewReceiptLog(0).File(sec.Bytes, sec.Receipts); err != nil {
		t.Fatalf("the block itself: %v", err)
	}
}

// arrivedRun makes receipts of every header shape, some failed, some
// with events. salt varies the content, so a re-delivery can be told
// from the first.
func arrivedRun(rng *rand.Rand, ids []uint64, salt byte) []*chain.Receipt {
	recs := make([]*chain.Receipt, len(ids))
	for i, id := range ids {
		r := &chain.Receipt{TxID: id, GasUsed: id * 3, Epoch: id / 7, Shard: int(id%5) - 1}
		if r.Success = id%3 != 0; !r.Success {
			r.Error = fmt.Sprintf("tx %d refused (%d)", id, salt)
		}
		for e := rng.Intn(3); e > 0; e-- {
			r.Events = append(r.Events, value.Msg{Entries: map[string]value.Value{
				"_eventname": value.Str{S: "Salted"},
				"salt":       value.Str{S: fmt.Sprintf("%d/%d/%d", id, salt, e)},
			}})
		}
		recs[i] = r
	}
	return recs
}

// receiptModel is the plainest thing that meets the log's contract: a
// map and a list of ids in eviction order, an id filed again moving to
// the young end.
type receiptModel struct {
	limit int
	on    map[uint64]*chain.Receipt
	order []uint64
}

// add files a block's receipts, as the building decoder reads them.
func (m *receiptModel) add(recs []*chain.Receipt) {
	for _, r := range recs {
		if m.on[r.TxID] != nil {
			m.order = slices.DeleteFunc(m.order, func(id uint64) bool { return id == r.TxID })
		}
		m.order = append(m.order, r.TxID)
		m.on[r.TxID] = r
	}
	for len(m.order) > m.limit {
		delete(m.on, m.order[0])
		m.order = m.order[1:]
	}
}

// check requires l to hold what m holds: the same ids on file, each
// answering with a receipt equal to, not the same as, the model's, its
// events' bytes a slice of their own; and Bytes to be what the blocks
// hold.
func (m *receiptModel) check(t *testing.T, l *ReceiptLog, ids []uint64, what string) {
	t.Helper()
	if l.Len() != len(m.on) {
		t.Fatalf("%s: %d on file, model holds %d", what, l.Len(), len(m.on))
	}
	held := 0
	for _, b := range l.blocks {
		held += len(b.data)
		if (b.data == nil) != (b.live == 0) || b.live > b.n {
			t.Fatalf("%s: a block of %d entries in %d bytes answers for %d ids", what, b.n, len(b.data), b.live)
		}
	}
	if l.bytes != held || (l.Len() == 0) != (held == 0) {
		t.Fatalf("%s: the log counts %d bytes, its blocks hold %d for %d ids", what, l.bytes, held, l.Len())
	}
	for _, id := range ids {
		got, want := l.Receipt(id), m.on[id]
		if want == nil {
			if got != nil {
				t.Fatalf("%s: evicted receipt %d still answers", what, id)
			}
			continue
		}
		if got == want || !reflect.DeepEqual(got, want) || cap(got.RawEvents) != len(got.RawEvents) {
			t.Fatalf("%s: receipt %d\n %+v\nwant a copy of\n %+v", what, id, got, want)
		}
	}
}

// TestReceiptLogAgainstModel files random blocks of receipts,
// re-deliveries and cap overflows into the log and into the model, and
// requires the same ids on file with the same content after every
// call. Then laps of equal blocks: the blocks whose ids have all left
// are gone.
func TestReceiptLogAgainstModel(t *testing.T) {
	const limit, ids = 64, 400
	all := make([]uint64, ids)
	for i := range all {
		all[i] = uint64(i)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewReceiptLog(limit)
		model := &receiptModel{limit: limit, on: map[uint64]*chain.Receipt{}}
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
			model.add(file(t, l, arrivedRun(rng, run, byte(step))))
			model.check(t, l, all, fmt.Sprintf("seed %d step %d", seed, step))
		}

		// Laps: blocks of 10 fresh ids. At most ⌈limit/10⌉ blocks hold
		// the ids on file, plus the one the oldest ids are leaving.
		const block = 10
		for lap, id := 0, uint64(1000); lap < 5*limit/block; lap++ {
			run := make([]uint64, block)
			for i := range run {
				run[i], id = id, id+1
			}
			file(t, l, arrivedRun(rng, run, 0))
		}
		if most := (limit+block-1)/block + 1; len(l.blocks) > most || l.Len() != limit {
			t.Fatalf("seed %d: after laps %d blocks live (want at most %d), %d on file",
				seed, len(l.blocks), most, l.Len())
		}
	}
}

// TestReceiptDelta pins the run coding: where a receipt of its head's
// length differs — at the start, in the middle, at the end, in two
// places one, two or three equal bytes apart — and the receipts kept
// whole: one of another length, one whose delta would be no shorter.
// Each coding reads back as the receipt, to its last byte.
func TestReceiptDelta(t *testing.T) {
	head := make([]byte, 40)
	for i := range head {
		head[i] = byte('a' + i%26)
	}
	with := func(at ...int) []byte {
		cur := bytes.Clone(head)
		for _, i := range at {
			cur[i] ^= 0x80
		}
		return cur
	}
	c := func(i int) byte { return head[i] ^ 0x80 }
	h := func(i int) byte { return head[i] }
	other := bytes.Repeat([]byte{'#'}, 40)
	for _, tc := range []struct {
		name string
		cur  []byte
		want []byte
	}{
		{"differs at the start", with(0), []byte{1, 1, c(0), 39}},
		{"differs in the middle", with(20), []byte{41, 1, c(20), 19}},
		{"differs at the end", with(39), []byte{79, 1, c(39)}},
		{"one equal byte between", with(10, 12), []byte{21, 3, c(10), h(11), c(12), 27}},
		{"two equal bytes between", with(10, 13), []byte{21, 4, c(10), h(11), h(12), c(13), 26}},
		{"three equal bytes between", with(10, 14), []byte{21, 1, c(10), 3, 1, c(14), 25}},
		{"equal to its head", with(), []byte{81}},
		{"another length", append(with(), 'z'), append([]byte{82}, append(with(), 'z')...)},
		{"delta no shorter", other, append([]byte{80}, other...)},
	} {
		got := appendEntry([]byte("prefix"), head, tc.cur)
		if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], tc.want) {
			t.Errorf("%s: coded %v, want %v", tc.name, got[6:], tc.want)
			continue
		}
		if rec, n := readEntry(got[6:], head); !bytes.Equal(rec, tc.cur) || n != len(tc.want) {
			t.Errorf("%s: reads back %q in %d bytes, want %q in %d", tc.name, rec, n, tc.cur, len(tc.want))
		}
	}
}

// FuzzReceiptDelta: any receipt coded against any head reads back as
// itself, from exactly its coded bytes, and its coding is never longer
// than the receipt kept whole.
func FuzzReceiptDelta(f *testing.F) {
	// Receipts of one run whose ids cross a uvarint width, one failed.
	recs := receiptRun(16380, 16388)
	recs[3].Success, recs[3].Error = false, "tx refused"
	sec := sectionOf(f, receiptBlock(f, recs))
	at := func(i int) []byte {
		if i+1 < len(sec.Receipts) {
			return sec.Bytes[sec.Receipts[i].Off:sec.Receipts[i+1].Off]
		}
		return sec.Bytes[sec.Receipts[i].Off:]
	}
	for i := 1; i < len(recs); i++ {
		f.Add(at(0), at(i))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{})
	f.Add([]byte("abcdefgh"), []byte("abXdeYgh"))
	f.Fuzz(func(t *testing.T, head, cur []byte) {
		coded := appendEntry([]byte{0xAA}, head, cur)
		if coded[0] != 0xAA {
			t.Fatalf("coding %q against %q overwrote what it was appended to", cur, head)
		}
		coded = coded[1:]
		if len(coded) > wholeLen(len(cur)) {
			t.Fatalf("%q against %q codes in %d bytes, %d whole", cur, head, len(coded), wholeLen(len(cur)))
		}
		if rec, n := readEntry(coded, head); !bytes.Equal(rec, cur) || n != len(coded) {
			t.Fatalf("%q against %q reads back as %q from %d of its %d coded bytes", cur, head, rec, n, len(coded))
		}
	})
}
