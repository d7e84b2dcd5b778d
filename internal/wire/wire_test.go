package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden wire fixtures and the fuzz seed corpus")

// fixtureTx builds a deterministic transaction exercising every value
// shape the format carries: ints, strings, byte strings, ADTs with
// type args, and a map.
func fixtureTx() *chain.Tx {
	amounts := value.NewMap(ast.TyByStr20, ast.TyUint128)
	amounts.Set(value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}, value.Uint128(7))
	amounts.Set(value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x22}, 20)}, value.Uint128(9))
	return &chain.Tx{
		ID:         42,
		Kind:       chain.TxCall,
		From:       chain.AddrFromUint(100),
		To:         chain.AddrFromUint(7),
		Nonce:      3,
		Amount:     big.NewInt(0),
		GasLimit:   100_000,
		GasPrice:   1,
		Transition: "Transfer",
		Args: map[string]value.Value{
			"to":     value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x33}, 20)},
			"amount": value.Uint128(12345),
			"tag":    value.Str{S: "hello"},
			"flag":   value.Some(ast.TyBool, value.True()),
			"bonus":  amounts,
			"height": value.BNum{V: big.NewInt(99)},
			"unit":   value.Unit{},
		},
	}
}

func fixtureReceipt() *chain.Receipt {
	return &chain.Receipt{
		TxID:    42,
		Success: true,
		GasUsed: 180,
		Shard:   -1,
		Epoch:   5,
		Events: []value.Msg{{Entries: map[string]value.Value{
			"_eventname": value.Str{S: "TransferSuccess"},
			"amount":     value.Uint128(12345),
		}}},
	}
}

func fixtureDelta() *chain.StateDelta {
	return &chain.StateDelta{
		Contract: chain.AddrFromUint(7),
		Shard:    2,
		Fields: []chain.FieldDelta{
			{
				Name: "balances",
				Entries: []chain.EntryDelta{
					{
						Kind:    chain.IntAdd,
						Keypath: "b:0x1111111111111111111111111111111111111111",
						Keys:    []value.Value{value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}},
						Delta:   big.NewInt(-12345),
					},
					{
						Kind:    chain.IntAdd,
						Keypath: "b:0x2222222222222222222222222222222222222222",
						Keys:    []value.Value{value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x22}, 20)}},
						Delta:   big.NewInt(12345),
					},
				},
			},
			{
				Name:  "paused",
				Whole: &chain.EntryDelta{Kind: chain.Delete},
			},
			{
				Name:  "total_supply",
				Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: value.Uint128(1 << 30)},
			},
		},
	}
}

func fixtureMicroBlock() *shard.MicroBlock {
	acc := chain.NewAccountDelta()
	acc.AddBalance(chain.AddrFromUint(100), big.NewInt(-200))
	acc.AddBalance(chain.AddrFromUint(101), big.NewInt(200))
	acc.BumpNonce(chain.AddrFromUint(100), 3)
	deferred := fixtureTx()
	deferred.ID = 43
	return &shard.MicroBlock{
		Shard:    2,
		Epoch:    5,
		Receipts: []*chain.Receipt{fixtureReceipt()},
		Deltas:   []*chain.StateDelta{fixtureDelta()},
		Accounts: acc,
		GasUsed:  180,
		Deferred: []*chain.Tx{deferred},
		ExecTime: 1500 * time.Microsecond,
	}
}

func fixtureFinalBlock() *shard.FinalBlock {
	acc := chain.NewAccountDelta()
	acc.AddBalance(chain.AddrFromUint(100), big.NewInt(-200))
	acc.BumpNonce(chain.AddrFromUint(100), 3)
	dsDelta := fixtureDelta()
	dsDelta.Shard = -1
	dsAcc := chain.NewAccountDelta()
	dsAcc.AddBalance(chain.AddrFromUint(101), big.NewInt(-31))
	dsAcc.BumpNonce(chain.AddrFromUint(101), 1)
	return &shard.FinalBlock{
		Epoch:      5,
		Deltas:     []*chain.StateDelta{fixtureDelta()},
		Accounts:   acc,
		DSDeltas:   []*chain.StateDelta{dsDelta},
		DSAccounts: dsAcc,
		Receipts:   []*chain.Receipt{fixtureReceipt()},
		StateRoot:  "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
	}
}

type fixture struct {
	name string
	typ  MsgType
	enc  []byte
}

func mustEnc(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// fixtures enumerates every message type with a deterministic
// representative instance; the golden test and the fuzz seed corpus
// are both generated from it. Encoding a fixture cannot fail (they
// carry no closures or deployments), so errors panic.
func fixtures() []fixture {
	txb := mustEnc(EncodeTx(fixtureTx()))
	deltab := mustEnc(EncodeStateDelta(fixtureDelta()))
	mbb := mustEnc(EncodeMicroBlock(fixtureMicroBlock()))
	fbb := mustEnc(EncodeFinalBlock(fixtureFinalBlock()))
	batchb := mustEnc(EncodeTxBatch(&TxBatch{Epoch: 5, Shard: 2, Txs: []*chain.Tx{fixtureTx()}}))
	subb := mustEnc(EncodeSubmit(&Submit{Corr: 9, Tx: fixtureTx()}))
	respb := mustEnc(EncodeStateResp(&StateResp{
		Corr: 11, Found: true, Balance: big.NewInt(1 << 40), Nonce: 3,
		Value: value.Uint128(12345),
	}))
	cbb := mustEnc(checkpointRecord(&CheckpointBlock{
		Checkpoint: shard.Checkpoint{Epoch: 6, BlockNumber: 6, NextTxID: 45},
		Block:      fixtureFinalBlock(),
	}))
	// A full snapshot's state record: every field written whole, a map
	// as the empty map and then its leaves.
	holder := value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}
	stateb := mustEnc(EncodeStateDelta(&chain.StateDelta{
		Contract: chain.AddrFromUint(7),
		Fields: []chain.FieldDelta{
			{
				Name:  "balances",
				Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: value.NewMap(ast.TyByStr20, ast.TyUint128)},
				Entries: []chain.EntryDelta{
					{Kind: chain.Overwrite, Keypath: value.CanonicalKey(holder), Keys: []value.Value{holder}, Value: value.Uint128(1000)},
				},
			},
			{Name: "bonus", Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: fixtureTx().Args["bonus"]}},
			{Name: "owner", Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: holder}},
			{Name: "total_supply", Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: value.Uint128(1 << 30)}},
		},
	}))
	accountsb := EncodeSnapshotAccounts([]SnapshotAccount{
		{Addr: chain.AddrFromUint(7), IsContract: true},
		{Addr: chain.AddrFromUint(100), Balance: chain.BalanceOf(1 << 40), Nonce: 3},
	})
	headerb := EncodeSnapshotHeader(&SnapshotHeader{
		Checkpoint: shard.Checkpoint{Epoch: 6, BlockNumber: 6, NextTxID: 45},
		Root:       "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
	})
	endb := EncodeSnapshotEnd(&SnapshotEnd{Contracts: 1, Accounts: 2})
	return []fixture{
		{"tx", MsgTx, txb},
		{"state_delta", MsgStateDelta, deltab},
		{"micro_block", MsgMicroBlock, mbb},
		{"final_block", MsgFinalBlock, fbb},
		{"tx_batch", MsgTxBatch, batchb},
		{"submit", MsgSubmit, subb},
		{"submit_resp", MsgSubmitResp, EncodeSubmitResp(&SubmitResp{Corr: 9, ID: 42})},
		{"state_query", MsgStateQuery, EncodeStateQuery(&StateQuery{Corr: 11, Addr: chain.AddrFromUint(7), Field: "balances", Key: "b:0x1111111111111111111111111111111111111111"})},
		{"state_resp", MsgStateResp, respb},
		{"checkpoint_block", MsgCheckpointBlock, cbb},
		{"snapshot_header", MsgSnapshotHeader, headerb},
		{"snapshot_accounts", MsgSnapshotAccounts, accountsb},
		{"snapshot_end", MsgSnapshotEnd, endb},
		{"snapshot_since", MsgSnapshotSince, EncodeSnapshotSince(&SnapshotSince{Epoch: 4})},
		{"block_request", MsgBlockRequest, EncodeBlockRequest(&BlockRequest{From: 3, To: 7})},
		{"block_response", MsgBlockResponse, mustEnc(blockResponse(&BlockResponse{
			From: 5, Head: 6, Blocks: []*shard.FinalBlock{fixtureFinalBlock()},
		}))},
		{"hello", MsgHello, EncodeHello(&Hello{Name: "lookup-1", Role: "lookup"})},
		// A state image frame carries one record of a full snapshot
		// file, byte for byte.
		{"state_image", MsgStateImage, AppendFrame(nil, MsgStateDelta, stateb)},
	}
}

// checkpointRecord is a journal record's payload as the store writes
// it in parts: the checkpoint, then the block's sealed payload.
func checkpointRecord(cb *CheckpointBlock) ([]byte, error) {
	fb, err := SealedFinalBlock(cb.Block)
	if err != nil {
		return nil, err
	}
	return append(AppendCheckpoint(nil, cb.Checkpoint), fb...), nil
}

// blockResponse is a catch-up response as the committee builds it, from
// the blocks' sealed payloads.
func blockResponse(resp *BlockResponse) ([]byte, error) {
	payloads := make([][]byte, len(resp.Blocks))
	for i, fb := range resp.Blocks {
		var err error
		if payloads[i], err = SealedFinalBlock(fb); err != nil {
			return nil, err
		}
	}
	return AppendBlockResponse(nil, resp.From, resp.Head, payloads), nil
}

// reencode decodes payload as msg type t and encodes the result again;
// byte equality with the input proves the decoder reads exactly what
// the encoder wrote (encodings are canonical: sorted map order).
func reencode(t MsgType, payload []byte) ([]byte, error) {
	switch t {
	case MsgTx:
		v, err := DecodeTx(payload)
		if err != nil {
			return nil, err
		}
		return EncodeTx(v)
	case MsgStateDelta:
		v, err := DecodeStateDelta(payload)
		if err != nil {
			return nil, err
		}
		return EncodeStateDelta(v)
	case MsgMicroBlock:
		v, err := DecodeMicroBlock(payload)
		if err != nil {
			return nil, err
		}
		return EncodeMicroBlock(v)
	case MsgFinalBlock:
		v, err := DecodeFinalBlock(payload)
		if err != nil {
			return nil, err
		}
		return EncodeFinalBlock(v)
	case MsgTxBatch:
		v, err := DecodeTxBatch(payload)
		if err != nil {
			return nil, err
		}
		return EncodeTxBatch(v)
	case MsgSubmit:
		v, err := DecodeSubmit(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSubmit(v)
	case MsgSubmitResp:
		v, err := DecodeSubmitResp(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSubmitResp(v), nil
	case MsgStateQuery:
		v, err := DecodeStateQuery(payload)
		if err != nil {
			return nil, err
		}
		return EncodeStateQuery(v), nil
	case MsgStateResp:
		v, err := DecodeStateResp(payload)
		if err != nil {
			return nil, err
		}
		return EncodeStateResp(v)
	case MsgCheckpointBlock:
		v, err := DecodeCheckpointBlock(payload)
		if err != nil {
			return nil, err
		}
		return checkpointRecord(v)
	case MsgSnapshotHeader:
		v, err := DecodeSnapshotHeader(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshotHeader(v), nil
	case MsgSnapshotAccounts:
		v, err := DecodeSnapshotAccounts(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshotAccounts(v), nil
	case MsgSnapshotEnd:
		v, err := DecodeSnapshotEnd(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshotEnd(v), nil
	case MsgSnapshotSince:
		v, err := DecodeSnapshotSince(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshotSince(v), nil
	case MsgBlockRequest:
		v, err := DecodeBlockRequest(payload)
		if err != nil {
			return nil, err
		}
		return EncodeBlockRequest(v), nil
	case MsgBlockResponse:
		v, err := DecodeBlockResponse(payload)
		if err != nil {
			return nil, err
		}
		return blockResponse(v)
	case MsgHello:
		v, err := DecodeHello(payload)
		if err != nil {
			return nil, err
		}
		return EncodeHello(v), nil
	case MsgStateImage:
		// Its payload is one record, a frame: it re-encodes as its own
		// type.
		typ, p, rest, err := DecodeFrame(payload)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("%w: state image record: %v (%d bytes after it)", ErrDecode, err, len(rest))
		}
		enc, err := reencode(typ, p)
		if err != nil {
			return nil, err
		}
		return AppendFrame(nil, typ, enc), nil
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", ErrDecode, t)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			got, err := reencode(fx.typ, fx.enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(got, fx.enc) {
				t.Fatalf("re-encoded bytes differ:\n got %x\nwant %x", got, fx.enc)
			}
		})
	}
}

func TestDecodedTxFields(t *testing.T) {
	want := fixtureTx()
	enc, err := EncodeTx(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Kind != want.Kind || got.From != want.From ||
		got.To != want.To || got.Nonce != want.Nonce || got.GasLimit != want.GasLimit ||
		got.GasPrice != want.GasPrice || got.Transition != want.Transition {
		t.Fatalf("scalar fields differ: got %+v want %+v", got, want)
	}
	if got.Amount.Cmp(want.Amount) != 0 {
		t.Fatalf("amount: got %s want %s", got.Amount, want.Amount)
	}
	if len(got.Args) != len(want.Args) {
		t.Fatalf("args: got %d want %d", len(got.Args), len(want.Args))
	}
	for k, v := range want.Args {
		if !value.Equal(got.Args[k], v) {
			t.Fatalf("arg %q: got %v want %v", k, got.Args[k], v)
		}
	}
}

func TestDeployNotEncodable(t *testing.T) {
	_, err := EncodeTx(&chain.Tx{Kind: chain.TxDeploy, Amount: big.NewInt(0)})
	if !errors.Is(err, ErrUnencodable) {
		t.Fatalf("want ErrUnencodable, got %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("payload")
	frame := EncodeFrame(MsgTx, payload)
	typ, got, rest, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgTx || !bytes.Equal(got, payload) || len(rest) != 0 {
		t.Fatalf("got type=%v payload=%q rest=%d", typ, got, len(rest))
	}

	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgMicroBlock, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgFinalBlock, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgMicroBlock || !bytes.Equal(got, payload) {
		t.Fatalf("first frame: type=%v payload=%q err=%v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgFinalBlock || len(got) != 0 {
		t.Fatalf("second frame: type=%v payload=%q err=%v", typ, got, err)
	}
	if _, _, err = ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestVersionSkew proves a v1 reader rejects a hypothetical v2 frame
// cleanly: structurally intact, newer version byte, typed error.
func TestVersionSkew(t *testing.T) {
	frame := EncodeFrame(MsgTx, []byte("future"))
	frame[2] = Version + 1
	if _, _, _, err := DecodeFrame(frame); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("DecodeFrame: want ErrVersionSkew, got %v", err)
	}
	if errors.Is(func() error { _, _, _, err := DecodeFrame(frame); return err }(), ErrDecode) {
		t.Fatal("version skew must not be classified as ErrDecode")
	}
	if _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("ReadFrame: want ErrVersionSkew, got %v", err)
	}
}

func TestFrameErrors(t *testing.T) {
	frame := EncodeFrame(MsgTx, []byte("x"))
	cases := map[string][]byte{
		"empty":             {},
		"short header":      frame[:4],
		"bad magic":         append([]byte{0xde, 0xad}, frame[2:]...),
		"truncated payload": frame[:len(frame)-1],
	}
	for name, b := range cases {
		if _, _, _, err := DecodeFrame(b); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: want ErrDecode, got %v", name, err)
		}
	}
	// Oversized length field must fail before allocating.
	big := EncodeFrame(MsgTx, nil)
	big[4], big[5], big[6], big[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, err := DecodeFrame(big); !errors.Is(err, ErrDecode) {
		t.Fatalf("oversized: want ErrDecode, got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(big)); !errors.Is(err, ErrDecode) {
		t.Fatalf("oversized (stream): want ErrDecode, got %v", err)
	}
	// A flipped payload byte fails the frame checksum — in both the
	// slice and stream decoders — but still relays through
	// AppendRawFrame, the TCP reader's (transports don't validate
	// payloads).
	corrupt := EncodeFrame(MsgTx, []byte("delta"))
	corrupt[len(corrupt)-1] ^= 0x01
	if _, _, _, err := DecodeFrame(corrupt); !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupt payload: want ErrDecode, got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(corrupt)); !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupt payload (stream): want ErrDecode, got %v", err)
	}
	if raw, err := AppendRawFrame(nil, bytes.NewReader(corrupt)); err != nil || !bytes.Equal(raw, corrupt) {
		t.Fatalf("AppendRawFrame must relay corrupted payloads: %v", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	enc, err := EncodeTx(fixtureTx())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTx(append(enc, 0x00)); !errors.Is(err, ErrDecode) {
		t.Fatalf("want ErrDecode for trailing bytes, got %v", err)
	}
}

// TestSnapshotBalanceWidth: a snapshot balance is written as appendBig
// writes the same value, up to 2^128-1, and a 129-bit one is refused.
func TestSnapshotBalanceWidth(t *testing.T) {
	max := chain.Balance{Hi: ^uint64(0), Lo: ^uint64(0)}
	for _, bal := range []chain.Balance{{}, chain.BalanceOf(1), {Hi: 1, Lo: 5}, max} {
		acc := SnapshotAccount{Addr: chain.AddrFromUint(9), Balance: bal, Nonce: 2}
		enc := EncodeSnapshotAccounts([]SnapshotAccount{acc})
		want := appendAddr(appendUvarint(nil, 1), acc.Addr)
		want = appendBig(want, bal.Big(new(big.Int)))
		want = appendBool(appendUvarint(want, 2), false)
		if !bytes.Equal(enc, want) {
			t.Errorf("balance %s encodes as %x, appendBig writes %x", bal, enc, want)
		}
		got, err := DecodeSnapshotAccounts(enc)
		if err != nil || len(got) != 1 || got[0] != acc {
			t.Errorf("balance %s decodes to %+v, %v", bal, got, err)
		}
	}
	wide := new(big.Int).Lsh(big.NewInt(1), 128)
	enc := appendAddr(appendUvarint(nil, 1), chain.AddrFromUint(9))
	enc = appendBool(appendUvarint(appendBig(enc, wide), 0), false)
	if _, err := DecodeSnapshotAccounts(enc); !errors.Is(err, ErrDecode) {
		t.Fatalf("129-bit snapshot balance decoded: %v", err)
	}
}

// TestGolden pins the byte-level format: any encoder change that
// alters the bytes of these fixtures is a wire format break and must
// bump Version (then regenerate with -update-golden).
func TestGolden(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", fx.name+".golden.hex")
			got := wrapHex(AppendFrame(nil, fx.typ, fx.enc))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("wire bytes changed for %s — this is a format break; bump wire.Version or fix the encoder.\n got:\n%s\nwant:\n%s", fx.name, got, want)
			}
		})
	}
}

// TestGoldenDecodes proves the committed fixtures still decode — the
// compatibility direction of the golden contract.
func TestGoldenDecodes(t *testing.T) {
	entries, err := filepath.Glob(filepath.Join("testdata", "*.golden.hex"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := hex.DecodeString(unwrapHex(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		typ, payload, rest, err := DecodeFrame(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: DecodeFrame: %v (rest=%d)", path, err, len(rest))
		}
		if _, err := reencode(typ, payload); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
}

// badMapFrames are state-delta records whose one field is written
// whole with a map no typed write builds: keys that are not values of
// the map's key type, or a key type no canonical key renders. A map's
// keys are rebuilt from its key type, so each must fail to decode. They
// seed FuzzDecoders too.
func badMapFrames() []fixture {
	return []fixture{
		{"bad_map_keys", MsgStateDelta, wholeMapDelta(ast.TyByStr20,
			value.Uint128(5), value.Uint128(1), value.Str{S: "x"}, value.Uint128(2))},
		{"bad_map_key_type", MsgStateDelta, wholeMapDelta(ast.MapType{Key: ast.TyUint128, Val: ast.TyUint128})},
		{"bad_map_key_width", MsgStateDelta, wholeMapDelta(ast.TyUint128, value.Uint32V(5), value.Uint128(1))},
		{"bad_map_key_bystr", MsgStateDelta, wholeMapDelta(ast.PrimType{Kind: ast.ByStr},
			value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}, value.Uint128(1))},
		{"bad_map_key_unit", MsgStateDelta, wholeMapDelta(ast.TyUnit, value.Unit{}, value.Uint128(1))},
	}
}

// badDeltas are state deltas that are not canonical (chain.StateDelta)
// — an entry filed under a keypath that is not its keys', entries out
// of keypath order or twice, fields out of name order or twice — each
// made from fixtureDelta, whose fields are balances (two entries),
// paused and total_supply. The encoder writes a delta in the order it
// holds, so each encodes as it stands; every decoder must refuse it.
func badDeltas() []struct {
	name string
	d    *chain.StateDelta
} {
	forged := fixtureDelta()
	forged.Fields[0].Entries[0].Keypath = "b:0x1111111111111111111111111111111111111110"
	swapped := fixtureDelta()
	es := swapped.Fields[0].Entries
	es[0], es[1] = es[1], es[0]
	dupEntry := fixtureDelta()
	dupEntry.Fields[0].Entries[1] = dupEntry.Fields[0].Entries[0]
	unsorted := fixtureDelta()
	unsorted.Fields[1], unsorted.Fields[2] = unsorted.Fields[2], unsorted.Fields[1]
	dupField := fixtureDelta()
	dupField.Fields[2] = dupField.Fields[1]
	return []struct {
		name string
		d    *chain.StateDelta
	}{
		{"bad_delta_forged_keypath", forged},
		{"bad_delta_swapped_entries", swapped},
		{"bad_delta_duplicate_entry", dupEntry},
		{"bad_delta_unsorted_fields", unsorted},
		{"bad_delta_duplicate_field", dupField},
	}
}

// badDeltaFrames are badDeltas as state-delta records. They seed
// FuzzDecoders too.
func badDeltaFrames() []fixture {
	var out []fixture
	for _, bd := range badDeltas() {
		out = append(out, fixture{bd.name, MsgStateDelta, mustEnc(EncodeStateDelta(bd.d))})
	}
	return out
}

// wholeMapDelta encodes, byte by byte, a state delta of contract 7
// whose field "balances" is written whole (an Overwrite entry) with a
// map of key type kt to Uint128 holding the key/value pairs kvs.
func wholeMapDelta(kt ast.Type, kvs ...value.Value) []byte {
	b := appendVarint(appendAddr(nil, chain.AddrFromUint(7)), 0)
	b = appendBool(appendString(appendUvarint(b, 1), "balances"), true)
	b = appendBool(appendUvarint(append(b, byte(chain.Overwrite)), 0), true)
	b = mustEnc(appendType(append(b, tagMap), kt))
	b = appendUvarint(mustEnc(appendType(b, ast.TyUint128)), uint64(len(kvs)/2))
	for _, v := range kvs {
		b = mustEnc(appendValue(b, v))
	}
	return appendUvarint(appendBig(b, nil), 0) // no delta, no entries
}

// TestMapKeysOfKeyType: a map decodes only when its key type is an
// integer, String, byte string or BNum type and every key is a value of
// exactly that type; the same map with well-typed keys decodes.
func TestMapKeysOfKeyType(t *testing.T) {
	for _, fx := range badMapFrames() {
		if d, err := DecodeStateDelta(fx.enc); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: decoded to %v, err %v; want ErrDecode", fx.name, d, err)
		}
	}
	holder := value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}
	m := value.NewMap(ast.TyByStr20, ast.TyUint128)
	m.Set(holder, value.Uint128(1))
	enc := wholeMapDelta(ast.TyByStr20, holder, value.Uint128(1))
	if d, err := DecodeStateDelta(enc); err != nil || !value.Equal(d.Fields[0].Whole.Value, m) {
		t.Fatalf("well-typed map: decoded %v, err %v", d, err)
	}
	want := mustEnc(EncodeStateDelta(&chain.StateDelta{
		Contract: chain.AddrFromUint(7),
		Fields:   []chain.FieldDelta{{Name: "balances", Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: m}}},
	}))
	if !bytes.Equal(enc, want) {
		t.Fatalf("the hand-built record is not the encoder's:\n got %x\nwant %x", enc, want)
	}
}

// TestDeltaIsCanonical: a state delta is read only in canonical order.
// Each of badDeltas fails with ErrDecode as a record, inside a
// MicroBlock, and inside a FinalBlock's shard or DS section, read whole,
// as a replica reads it and as a lookup reads it (DecodeReceiptSection).
// A canonical delta whose keys are of every kind a keypath renders —
// String keys holding control bytes, an integer, a block number, a
// nested pair — is read by all.
func TestDeltaIsCanonical(t *testing.T) {
	decoders := func(d *chain.StateDelta) map[string]error {
		mb := fixtureMicroBlock()
		mb.Deltas = []*chain.StateDelta{d}
		shardSide, dsSide := fixtureFinalBlock(), fixtureFinalBlock()
		shardSide.Deltas = []*chain.StateDelta{d}
		dsSide.DSDeltas = []*chain.StateDelta{d}
		errs := map[string]error{}
		_, errs["DecodeStateDelta"] = DecodeStateDelta(mustEnc(EncodeStateDelta(d)))
		_, errs["DecodeMicroBlock"] = DecodeMicroBlock(mustEnc(EncodeMicroBlock(mb)))
		for side, fb := range map[string]*shard.FinalBlock{"shard": shardSide, "DS": dsSide} {
			enc := mustEnc(EncodeFinalBlock(fb))
			_, errs["DecodeFinalBlock/"+side] = DecodeFinalBlock(enc)
			_, errs["DecodeFinalBlockState/"+side] = DecodeFinalBlockState(enc)
			errs["DecodeReceiptSection/"+side] = DecodeReceiptSection(enc, &ReceiptSection{})
		}
		return errs
	}
	for _, bd := range badDeltas() {
		for dec, err := range decoders(bd.d) {
			if !errors.Is(err, ErrDecode) {
				t.Errorf("%s: %s returned %v, want ErrDecode", bd.name, dec, err)
			}
		}
	}

	str := func(s string) value.Value { return value.Str{S: s} }
	entry := func(keys ...value.Value) chain.EntryDelta {
		return chain.EntryDelta{Kind: chain.Overwrite, Keypath: chain.Keypath(keys), Keys: keys, Value: value.Uint128(1)}
	}
	good := &chain.StateDelta{Contract: chain.AddrFromUint(7), Fields: []chain.FieldDelta{
		{Name: "by_height", Entries: []chain.EntryDelta{entry(value.BNum{V: big.NewInt(12)})}},
		{Name: "by_id", Entries: []chain.EntryDelta{entry(value.Uint32V(7)), entry(value.Uint32V(70))}},
		{Name: "nested", Entries: []chain.EntryDelta{entry(str("a"), str("z")), entry(str("a\x01"), str("b")), entry(str("a\x1e"))}},
	}}
	chain.SortEntries(good.Fields[2].Entries) // a no-op: escaped, "a\x01…" and "a\x1e" sort after "a\x1f…"
	for dec, err := range decoders(good) {
		if err != nil {
			t.Errorf("canonical delta: %s returned %v", dec, err)
		}
	}
}

// TestUpdateFuzzCorpus materialises the fixtures as seed-corpus files
// for FuzzDecoders when -update-golden is set, so the committed corpus
// tracks the format.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update-golden to rewrite the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecoders")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, fx := range slices.Concat(fixtures(), badMapFrames(), badDeltaFrames()) {
		frame := AppendFrame(nil, fx.typ, fx.enc)
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed_"+fx.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func wrapHex(b []byte) string {
	s := hex.EncodeToString(b)
	var sb bytes.Buffer
	for len(s) > 64 {
		sb.WriteString(s[:64])
		sb.WriteByte('\n')
		s = s[64:]
	}
	sb.WriteString(s)
	sb.WriteByte('\n')
	return sb.String()
}

func unwrapHex(s string) string {
	var sb bytes.Buffer
	for _, line := range bytes.Split([]byte(s), []byte("\n")) {
		sb.Write(bytes.TrimSpace(line))
	}
	return sb.String()
}
