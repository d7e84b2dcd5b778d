package wire

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"reflect"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// richReceipts exercises every value shape an event can carry, a
// failure receipt, and a receipt without events.
func richReceipts() []*chain.Receipt {
	args := fixtureTx().Args
	nested := value.NewMap(ast.TyString, ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128})
	nested.Set(value.Str{S: "inner"}, args["bonus"])
	return []*chain.Receipt{
		fixtureReceipt(),
		{TxID: 43, Error: "tx 43 sender 0x64 nonce 4: out of gas", GasUsed: 7, Shard: 1, Epoch: 5},
		{TxID: 44, Success: true, GasUsed: 300, Shard: 0, Epoch: 5, Events: []value.Msg{
			{Entries: map[string]value.Value{"_eventname": value.Str{S: "A"}, "flag": args["flag"], "bonus": args["bonus"], "unit": args["unit"]}},
			{Entries: map[string]value.Value{"_eventname": value.Str{S: "B"}, "height": args["height"], "nested": nested,
				"neg":  value.Int{Ty: ast.TyInt32, V: big.NewInt(-1 << 31)},
				"wide": value.Int{Ty: ast.TyUint256, V: new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))}}},
		}},
	}
}

// stripped returns copies of decoded receipts with their events built
// and their bytes forgotten — what an encoder sees from an executor.
func stripped(t *testing.T, recs []*chain.Receipt) []*chain.Receipt {
	t.Helper()
	out := make([]*chain.Receipt, len(recs))
	for i, rec := range recs {
		cp := *rec
		events, err := ReceiptEvents(rec)
		if err != nil {
			t.Fatalf("receipt %d: events rejected after the block was accepted: %v", i, err)
		}
		cp.Events, cp.RawEvents = events, nil
		out[i] = &cp
	}
	return out
}

// FuzzReceiptEvents feeds arbitrary bytes to the receipt-list decoder
// blocks use — headers built, events only checked and kept as bytes.
// Whatever it accepts, the events build on demand, and decode∘encode is
// a fixed point both ways: copying the kept bytes, and encoding built
// events with the bytes forgotten. Either way the receipts decoded again
// build into receipts deep-equal to the first.
func FuzzReceiptEvents(f *testing.F) {
	seed := func(recs []*chain.Receipt) []byte {
		b, err := appendReceipts(nil, recs)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add(seed([]*chain.Receipt{fixtureReceipt()}))
	f.Add(seed(richReceipts()))
	f.Add(seed(nil))
	// One receipt whose single event is: not a message; an integer out
	// of range for its type; nested past the depth limit.
	header := []byte{1, 42, 1, 0, 0, 0, 5, 1}
	f.Add(append(bytes.Clone(header), tagStr, 1, 'x'))
	f.Add(append(bytes.Clone(header), tagMsg, 1, 1, 'k', tagInt, byte(ast.Uint32), bigPos, 5, 1, 0, 0, 0, 0))
	deep := append(bytes.Clone(header), tagMsg, 1, 1, 'k')
	for i := 0; i < maxValueDepth+2; i++ {
		deep = append(deep, tagADT, 1, 'T', 1, 'C', 0, 1)
	}
	f.Add(append(deep, tagUnit))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{b: data}
		got := r.receipts(true, nil)
		// The reads that build nothing — one only checking, one also
		// recording where each receipt lies — refuse what this one
		// refuses, and stop where it stops.
		var sec ReceiptSection
		for _, into := range []*ReceiptSection{nil, &sec} {
			checked := &reader{b: data}
			if checked.receipts(false, into) != nil || (checked.err == nil) != (r.err == nil) || (r.err == nil && len(checked.b) != len(r.b)) {
				t.Fatalf("checking read (recording %v): error %v, %d bytes left; building read: error %v, %d bytes left",
					into != nil, checked.err, len(checked.b), r.err, len(r.b))
			}
		}
		if r.err != nil {
			if !errors.Is(r.err, ErrDecode) {
				t.Fatalf("untyped error %v", r.err)
			}
			return
		}
		for i, rec := range got {
			if rec.Events != nil || rec.RawEvents == nil {
				t.Fatalf("receipt %d: decoded with built events or without its bytes", i)
			}
		}
		checkRanges(t, &sec, got)
		built := stripped(t, got)
		for name, prepare := range map[string]func([]*chain.Receipt) []*chain.Receipt{
			"kept bytes":      func(recs []*chain.Receipt) []*chain.Receipt { return recs },
			"forgotten bytes": func(recs []*chain.Receipt) []*chain.Receipt { return stripped(t, recs) },
		} {
			enc1, err := appendReceipts(nil, prepare(got))
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			again := &reader{b: enc1}
			recs := again.receipts(true, nil)
			if err := again.done(); err != nil {
				t.Fatalf("%s: own encoding rejected: %v", name, err)
			}
			if rebuilt := stripped(t, recs); !reflect.DeepEqual(rebuilt, built) {
				t.Fatalf("%s: receipts built after a round trip\n %+v\nbefore\n %+v", name, rebuilt, built)
			}
			enc2, err := appendReceipts(nil, prepare(recs))
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: not a fixed point:\n first %x\nsecond %x", name, enc1, enc2)
			}
		}
	})
}

// TestReceiptsRestEncoded walks a receipt through a block: decoded, it
// has its header and its events' bytes but no events; encoded again,
// those bytes are copied and the header comes from the fields; asked,
// it builds the events it was given.
func TestReceiptsRestEncoded(t *testing.T) {
	mb := fixtureMicroBlock()
	mb.Receipts = richReceipts()
	enc, err := EncodeMicroBlock(mb)
	if err != nil {
		t.Fatal(err)
	}
	before := Counts()
	dec, err := DecodeMicroBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range dec.Receipts {
		want := mb.Receipts[i]
		if rec.Events != nil || rec.RawEvents == nil {
			t.Fatalf("receipt %d decoded with events built: %+v", i, rec)
		}
		if rec.TxID != want.TxID || rec.Success != want.Success || rec.GasUsed != want.GasUsed ||
			rec.Error != want.Error || rec.Shard != want.Shard || rec.Epoch != want.Epoch {
			t.Fatalf("receipt %d header %+v, want %+v", i, rec, want)
		}
	}
	// The committee's pass-through: shard receipts go into the
	// FinalBlock and out to the replicas without an event being built.
	fb := fixtureFinalBlock()
	fb.Receipts = dec.Receipts
	fbEnc, err := EncodeFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	fbDec, err := DecodeFinalBlock(fbEnc)
	if err != nil {
		t.Fatal(err)
	}
	if got := Counts().EventDecodes - before.EventDecodes; got != 0 {
		t.Fatalf("%d receipts had their events built on the way through two blocks", got)
	}
	fb.Receipts = mb.Receipts
	direct, err := EncodeFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fbEnc, direct) {
		t.Fatal("a block of passed-through receipts differs from the block of the executor's receipts")
	}
	for i, rec := range fbDec.Receipts {
		events, err := ReceiptEvents(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(mb.Receipts[i].Events) {
			t.Fatalf("receipt %d: %d events, want %d", i, len(events), len(mb.Receipts[i].Events))
		}
		for j, ev := range events {
			if !value.Equal(ev, mb.Receipts[i].Events[j]) {
				t.Fatalf("receipt %d event %d: %v, want %v", i, j, ev, mb.Receipts[i].Events[j])
			}
		}
		if rec.Events != nil {
			t.Fatalf("receipt %d: ReceiptEvents wrote the events back into a shared receipt", i)
		}
	}
	if got, want := Counts().EventDecodes-before.EventDecodes, uint64(len(fbDec.Receipts)); got != want {
		t.Fatalf("EventDecodes moved by %d for %d receipts shown", got, want)
	}

	// Stale bytes: a decoded receipt whose header is edited encodes the
	// edit, and one given events of its own encodes those, not the bytes
	// it arrived with.
	edited := fbDec.Receipts[0]
	edited.Success, edited.Error, edited.Epoch = false, "edited", 9
	given := fbDec.Receipts[2]
	given.Events = []value.Msg{{Entries: map[string]value.Value{"_eventname": value.Str{S: "Replaced"}}}}
	enc1, err := appendReceipts(nil, fbDec.Receipts)
	if err != nil {
		t.Fatal(err)
	}
	want := stripped(t, fbDec.Receipts)
	enc2, err := appendReceipts(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("an edited receipt encoded bytes that differ from the encoding of its fields")
	}
	r := &reader{b: enc1}
	round := r.receipts(true, nil)
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if round[0].Success || round[0].Error != "edited" || round[0].Epoch != 9 {
		t.Fatalf("header edit lost: %+v", round[0])
	}
	if ev, _ := ReceiptEvents(round[2]); len(ev) != 1 || !value.Equal(ev[0], given.Events[0]) {
		t.Fatalf("replaced events lost: %v", ev)
	}
}

// TestSealedFinalBlock pins what a seal promises: the bytes a block was
// decoded from or first encoded to are its payload for every later
// user, and a block whose fields were reassigned is encoded afresh
// rather than shipped as bytes that no longer say what it is.
func TestSealedFinalBlock(t *testing.T) {
	built := fixtureFinalBlock()
	if built.Sealed() != nil {
		t.Fatal("a block built in memory claims a payload")
	}
	before := Counts()
	first, err := SealedFinalBlock(built)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SealedFinalBlock(built)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := checkpointRecord(&CheckpointBlock{Block: built})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := blockResponse(&BlockResponse{From: built.Epoch, Head: built.Epoch + 1, Blocks: []*shard.FinalBlock{built}})
	if err != nil {
		t.Fatal(err)
	}
	if got := Counts().FinalBlockEncodes - before.FinalBlockEncodes; got != 1 {
		t.Fatalf("sealing, journaling and serving one block encoded it %d times", got)
	}
	if &first[0] != &second[0] || !bytes.HasSuffix(cb, first) || !bytes.Contains(resp, first) {
		t.Fatal("the sealed payload is not the one every encoder used")
	}

	payload := bytes.Clone(first)
	decoded, err := DecodeFinalBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.Sealed(); len(got) == 0 || &got[0] != &payload[0] {
		t.Fatal("a decoded block is not sealed with the payload it came from")
	}
	edits := map[string]func(fb *shard.FinalBlock){
		"epoch":            func(fb *shard.FinalBlock) { fb.Epoch += 3 },
		"root":             func(fb *shard.FinalBlock) { fb.StateRoot = "0000" },
		"receipts dropped": func(fb *shard.FinalBlock) { fb.Receipts = nil },
		"receipt appended": func(fb *shard.FinalBlock) { fb.Receipts = append(fb.Receipts, fixtureReceipt()) },
		"deltas replaced":  func(fb *shard.FinalBlock) { fb.Deltas = []*chain.StateDelta{fixtureDelta()} },
		"DS phase dropped": func(fb *shard.FinalBlock) { fb.DSDeltas, fb.DSAccounts = nil, nil },
		"accounts swapped": func(fb *shard.FinalBlock) { fb.Accounts = chain.NewAccountDelta() },
	}
	for name, edit := range edits {
		fake := *decoded // the way tests fabricate future and corrupt blocks
		edit(&fake)
		if fake.Sealed() != nil {
			t.Errorf("%s: the edited copy still claims the original's payload", name)
		}
		got, err := SealedFinalBlock(&fake)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeFinalBlock(&fake)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sealed payload differs from the encoding of the edited block", name)
		}
	}
	if got := decoded.Sealed(); len(got) == 0 || &got[0] != &payload[0] {
		t.Fatal("editing copies unsealed the original")
	}
}

// synthBlock builds a token-transfer-shaped FinalBlock of n
// transactions, decoded from its own encoding so its receipts carry
// their bytes the way the committee's and a replica's do.
func synthBlock(t testing.TB, n int) *shard.FinalBlock {
	t.Helper()
	fd := chain.FieldDelta{Name: "balances", Entries: make([]chain.EntryDelta, 0, 2*n)}
	acc := chain.NewAccountDelta()
	fb := &shard.FinalBlock{Epoch: 7, StateRoot: fixtureFinalBlock().StateRoot, Accounts: acc}
	for i := 0; i < n; i++ {
		from, to := chain.AddrFromUint(uint64(100+2*i)), chain.AddrFromUint(uint64(101+2*i))
		for _, e := range []struct {
			a chain.Address
			d int64
		}{{from, -1}, {to, 1}} {
			keys := []value.Value{e.a.Value()}
			fd.Entries = append(fd.Entries, chain.EntryDelta{Kind: chain.IntAdd, Keypath: chain.Keypath(keys), Keys: keys, Delta: big.NewInt(e.d)})
		}
		acc.AddBalance(from, big.NewInt(-1))
		acc.BumpNonce(from, uint64(i+1))
		fb.Receipts = append(fb.Receipts, &chain.Receipt{TxID: uint64(1000 + i), Success: true, GasUsed: 1, Shard: i % 3, Epoch: 7,
			Events: []value.Msg{{Entries: map[string]value.Value{
				"_eventname": value.Str{S: "TransferSuccess"}, "sender": from.Value(), "recipient": to.Value(), "amount": value.Uint128(1),
			}}}})
	}
	chain.SortEntries(fd.Entries)
	fb.Deltas = []*chain.StateDelta{{Contract: chain.AddrFromUint(7), Fields: []chain.FieldDelta{fd}}}
	enc, err := EncodeFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeFinalBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestBlockEncodeAllocatesOnce: the encoders size their buffer from the
// block's counts, so a block twice as large costs the same number of
// allocations — the buffer, and the account delta's sort scratch — where a
// buffer doubling its way up from a constant would pay one more for
// each doubling.
func TestBlockEncodeAllocatesOnce(t *testing.T) {
	var allocs [2]struct{ fb, mb float64 }
	for i, n := range []int{1000, 2000} {
		fb := synthBlock(t, n)
		mb := &shard.MicroBlock{Shard: 1, Epoch: fb.Epoch, Receipts: fb.Receipts, Deltas: fb.Deltas, Accounts: fb.Accounts, GasUsed: uint64(n)}
		var fbLen, mbLen int
		allocs[i].fb = testing.AllocsPerRun(5, func() {
			b, err := EncodeFinalBlock(fb)
			if err != nil {
				t.Fatal(err)
			}
			fbLen = len(b)
		})
		allocs[i].mb = testing.AllocsPerRun(5, func() {
			b, err := EncodeMicroBlock(mb)
			if err != nil {
				t.Fatal(err)
			}
			mbLen = len(b)
		})
		if hint := hintReceipts(fb.Receipts) + hintDeltas(fb.Deltas) + hintAccounts(fb.Accounts); hint < fbLen || hint > 2*fbLen {
			t.Errorf("%d transactions: size hint %d for a %d-byte FinalBlock", n, hint, fbLen)
		}
		t.Logf("%d transactions: FinalBlock %d bytes in %.0f allocations, MicroBlock %d bytes in %.0f", n, fbLen, allocs[i].fb, mbLen, allocs[i].mb)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grow with the block: %+v for 1000 transactions, %+v for 2000", allocs[0], allocs[1])
	}
	if allocs[0].fb > 12 || allocs[0].mb > 12 {
		t.Errorf("a block encode makes %+v allocations, want the buffer and a few sort scratches", allocs[0])
	}
}

// TestWriteFrameParts: a frame written as parts is byte for byte the
// frame built around their concatenation, and AppendRawFrame relays it
// through a reused buffer without disturbing what precedes it.
func TestWriteFrameParts(t *testing.T) {
	parts := [][]byte{[]byte("checkpoint"), nil, []byte("the sealed block's payload")}
	var stream bytes.Buffer
	n, err := WriteFrameParts(&stream, MsgCheckpointBlock, parts...)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeFrame(MsgCheckpointBlock, bytes.Join(parts, nil))
	if n != len(want) || !bytes.Equal(stream.Bytes(), want) {
		t.Fatalf("frame written as parts (%d bytes):\n %x\nframe of the joined payload:\n %x", n, stream.Bytes(), want)
	}
	if err := WriteFrame(&stream, MsgHello, []byte("second")); err != nil {
		t.Fatal(err)
	}
	buf := append(make([]byte, 0, 256), "kept"...)
	buf, err = AppendRawFrame(buf, &stream)
	if err != nil || !bytes.Equal(buf, append([]byte("kept"), want...)) {
		t.Fatalf("AppendRawFrame: %x, %v", buf, err)
	}
	again, err := AppendRawFrame(buf[:0], &stream)
	if err != nil || &again[0] != &buf[0] {
		t.Fatalf("AppendRawFrame did not reuse the buffer it was given: %v", err)
	}
	if typ, payload, _, err := DecodeFrame(again); err != nil || typ != MsgHello || string(payload) != "second" {
		t.Fatalf("second frame: %v %q %v", typ, payload, err)
	}
	if _, err := AppendRawFrame(again[:0], &stream); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}
