package wire

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
)

// FuzzDecoders feeds arbitrary bytes through the frame parser and
// every message decoder. The invariants:
//
//  1. no decoder panics or over-allocates on hostile input — it either
//     succeeds or fails with ErrDecode/ErrVersionSkew;
//  2. whatever decodes successfully re-encodes canonically: a second
//     decode/encode round produces identical bytes (the fixed point of
//     the format).
//
// The seed corpus under testdata/fuzz/FuzzDecoders is generated from
// the golden fixtures (go test -run TestUpdateFuzzCorpus -update-golden).
func FuzzDecoders(f *testing.F) {
	for _, fx := range slices.Concat(fixtures(), badMapFrames(), badDeltaFrames()) {
		f.Add(AppendFrame(nil, fx.typ, fx.enc))
	}
	// A few deliberately broken seeds so the corpus covers error paths.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version + 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(AppendFrame(nil, MsgType(99), []byte{1, 2}))
	// Valid header, one payload byte flipped: must fail the checksum.
	flipped := AppendFrame(nil, MsgTx, []byte{1, 2, 3, 4})
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// A state image frame carries one record: one with two is refused.
	end := AppendFrame(nil, MsgSnapshotEnd, EncodeSnapshotEnd(&SnapshotEnd{}))
	f.Add(AppendFrame(nil, MsgStateImage, append(end, end...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrDecode) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("DecodeFrame: untyped error %v", err)
			}
			return
		}
		enc1, err := reencode(typ, payload)
		if err != nil {
			if !errors.Is(err, ErrDecode) && !errors.Is(err, ErrUnencodable) {
				t.Fatalf("decode %v: untyped error %v", typ, err)
			}
			return
		}
		// The first decode may have accepted a non-canonical payload
		// (the entries of a Scilla map value in arbitrary order; a state
		// delta's fields and entries are read only in canonical order);
		// its re-encoding must be the format's fixed point.
		enc2, err := reencode(typ, enc1)
		if err != nil {
			t.Fatalf("re-decode %v failed on own encoding: %v", typ, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not canonical for %v:\n first %x\nsecond %x", typ, enc1, enc2)
		}
	})
}

// FuzzFinalBlockReceipts sets the two partial reads of a FinalBlock
// against the decoder that builds all of it, on the same bytes: the
// receipt-section read a lookup uses and the state read a replica uses
// each accept a payload iff DecodeFinalBlock does; the first records
// the same epoch and root and exactly the receipts the building read
// builds, the second reads the same epoch, root and state sections and
// no receipt.
func FuzzFinalBlockReceipts(f *testing.F) {
	for _, seed := range receiptsOnlySeeds() {
		f.Add(seed.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeFinalBlock(data)
		sec := ReceiptSection{Receipts: make([]ReceiptRange, 3)} // a reused array: nothing of it may show
		err := DecodeReceiptSection(data, &sec)
		state, stateErr := DecodeFinalBlockState(data)
		if (wantErr == nil) != (err == nil) || (wantErr == nil) != (stateErr == nil) {
			t.Fatalf("block: DecodeFinalBlock %v, DecodeReceiptSection %v, DecodeFinalBlockState %v", wantErr, err, stateErr)
		}
		if err != nil {
			if !errors.Is(err, ErrDecode) || sec.Bytes != nil || len(sec.Receipts) != 0 || !errors.Is(stateErr, ErrDecode) || state != nil {
				t.Fatalf("rejected block: errors %v / %v, %d receipts recorded", err, stateErr, len(sec.Receipts))
			}
			return
		}
		if sec.Epoch != want.Epoch || sec.StateRoot != want.StateRoot {
			t.Fatalf("receipt-section read: epoch %d root %q, block has %d %q", sec.Epoch, sec.StateRoot, want.Epoch, want.StateRoot)
		}
		checkRanges(t, &sec, want.Receipts)
		if state.Epoch != want.Epoch || state.StateRoot != want.StateRoot || state.Receipts != nil ||
			!reflect.DeepEqual(state.Deltas, want.Deltas) || !reflect.DeepEqual(state.Accounts, want.Accounts) ||
			!reflect.DeepEqual(state.DSDeltas, want.DSDeltas) || !reflect.DeepEqual(state.DSAccounts, want.DSAccounts) {
			t.Fatalf("state read: %+v, the block %+v", state, want)
		}
	})
}

// checkRanges requires sec to place exactly the receipts want, in
// order, from offset 0 up: each range's id is its receipt's, and
// ReadReceipt from its offset builds that receipt.
func checkRanges(t *testing.T, sec *ReceiptSection, want []*chain.Receipt) {
	t.Helper()
	if len(sec.Receipts) != len(want) {
		t.Fatalf("%d receipts recorded, the building read has %d", len(sec.Receipts), len(want))
	}
	for i, at := range sec.Receipts {
		if (i == 0) != (at.Off == 0) || (i > 0 && at.Off <= sec.Receipts[i-1].Off) || at.Off >= len(sec.Bytes) {
			t.Fatalf("receipt %d recorded at %d of a %d-byte section", i, at.Off, len(sec.Bytes))
		}
		got, err := ReadReceipt(sec.Bytes[at.Off:])
		if err != nil || at.ID != want[i].TxID || !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("receipt %d recorded as %d, read as %+v (%v), built as %+v", i, at.ID, got, err, want[i])
		}
	}
}

type receiptsOnlySeed struct {
	b    []byte
	fail string // what both decoders must refuse it for; "" if valid
}

// receiptsOnlySeeds are FuzzFinalBlockReceipts' seeds: whole blocks, a
// delta section alone (so the section check starts on one too),
// corruptions of the sections a lookup does not build, and of the
// receipts a replica does not build.
func receiptsOnlySeeds() []receiptsOnlySeed {
	fb := fixtureFinalBlock()
	whole := mustEnc(EncodeFinalBlock(fb))
	rich := fixtureFinalBlock()
	rich.Deltas, rich.DSAccounts, rich.Receipts = nil, nil, richReceipts()
	badKind := fixtureFinalBlock()
	badKind.DSDeltas[0].Fields[1].Whole.Kind = chain.Delete + 1 // "paused"
	nilBalance := fixtureFinalBlock()
	nilBalance.Accounts.BalanceDeltas[chain.AddrFromUint(100)] = nil
	notMsg := fixtureFinalBlock()
	notMsg.Receipts[0].Events, notMsg.Receipts[0].RawEvents = nil, []byte{1, tagStr, 1, 'x'}
	return []receiptsOnlySeed{
		{whole, ""},
		{mustEnc(EncodeFinalBlock(rich)), ""},
		{mustEnc(EncodeFinalBlock(&shard.FinalBlock{})), ""},
		{mustEnc(appendStateDeltas(nil, []*chain.StateDelta{fixtureDelta()})), "exceeds remaining payload"},
		{mustEnc(EncodeFinalBlock(badKind)), "bad delta kind"},
		{mustEnc(EncodeFinalBlock(nilBalance)), "nil balance delta"},
		{whole[:len(whole)/2], "truncated address"},
		{mustEnc(EncodeFinalBlock(notMsg)), "receipt event is not a message"},
		{whole[:len(whole)-3], "bad uvarint"},
	}
}

// TestReceiptsOnlyReadRejectsCorruptDeltas: the lookup's read builds
// nothing and the replica's no receipt, and each still refuses a block
// whose sections it does not build are corrupt, for the reason the
// building decoder gives.
func TestReceiptsOnlyReadRejectsCorruptDeltas(t *testing.T) {
	for i, seed := range receiptsOnlySeeds() {
		_, wantErr := DecodeFinalBlock(seed.b)
		err := DecodeReceiptSection(seed.b, &ReceiptSection{})
		_, stateErr := DecodeFinalBlockState(seed.b)
		if seed.fail == "" {
			if err != nil || wantErr != nil || stateErr != nil {
				t.Errorf("seed %d: valid block refused: %v / %v / %v", i, err, wantErr, stateErr)
			}
			continue
		}
		for _, e := range []error{err, wantErr, stateErr} {
			if !errors.Is(e, ErrDecode) || !strings.Contains(e.Error(), seed.fail) {
				t.Errorf("seed %d: error %v, want ErrDecode naming %q", i, e, seed.fail)
			}
		}
	}
}
