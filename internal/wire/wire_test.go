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
		Fields: map[string]*chain.FieldDelta{
			"balances": {
				Entries: map[string]chain.EntryDelta{
					"b:0x1111111111111111111111111111111111111111": {
						Kind:  chain.IntAdd,
						Keys:  []value.Value{value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)}},
						Delta: big.NewInt(-12345),
					},
					"b:0x2222222222222222222222222222222222222222": {
						Kind:  chain.IntAdd,
						Keys:  []value.Value{value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x22}, 20)}},
						Delta: big.NewInt(12345),
					},
				},
			},
			"total_supply": {
				Whole: &chain.EntryDelta{Kind: chain.Overwrite, Value: value.Uint128(1 << 30)},
			},
			"paused": {
				Whole: &chain.EntryDelta{Kind: chain.Delete},
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
	contractb := mustEnc(EncodeSnapshotContract(&SnapshotContract{
		Addr: chain.AddrFromUint(7),
		Fields: map[string]value.Value{
			"total_supply": value.Uint128(1 << 30),
			"owner":        value.ByStr{Ty: ast.TyByStr20, B: bytes.Repeat([]byte{0x11}, 20)},
			"bonus":        fixtureTx().Args["bonus"],
		},
	}))
	accountsb := EncodeSnapshotAccounts([]SnapshotAccount{
		{Addr: chain.AddrFromUint(7), IsContract: true},
		{Addr: chain.AddrFromUint(100), Balance: chain.BalanceOf(1 << 40), Nonce: 3},
	})
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
		{"snapshot_header", MsgSnapshotHeader, EncodeSnapshotHeader(&SnapshotHeader{
			Checkpoint: shard.Checkpoint{Epoch: 6, BlockNumber: 6, NextTxID: 45},
			Root:       "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
		})},
		{"snapshot_contract", MsgSnapshotContract, contractb},
		{"snapshot_accounts", MsgSnapshotAccounts, accountsb},
		{"snapshot_end", MsgSnapshotEnd, EncodeSnapshotEnd(&SnapshotEnd{Contracts: 1, Accounts: 2})},
		{"snapshot_since", MsgSnapshotSince, EncodeSnapshotSince(&SnapshotSince{Epoch: 4})},
		{"block_request", MsgBlockRequest, EncodeBlockRequest(&BlockRequest{From: 3, To: 7})},
		{"block_response", MsgBlockResponse, mustEnc(blockResponse(&BlockResponse{
			From: 5, Head: 6, Blocks: []*shard.FinalBlock{fixtureFinalBlock()},
		}))},
		{"hello", MsgHello, EncodeHello(&Hello{Name: "lookup-1", Role: "lookup"})},
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
	case MsgSnapshotContract:
		v, err := DecodeSnapshotContract(payload)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshotContract(v)
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
	// slice and stream decoders — but still relays through ReadRawFrame
	// (transports don't validate payloads).
	corrupt := EncodeFrame(MsgTx, []byte("delta"))
	corrupt[len(corrupt)-1] ^= 0x01
	if _, _, _, err := DecodeFrame(corrupt); !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupt payload: want ErrDecode, got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(corrupt)); !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupt payload (stream): want ErrDecode, got %v", err)
	}
	if raw, err := ReadRawFrame(bytes.NewReader(corrupt)); err != nil || !bytes.Equal(raw, corrupt) {
		t.Fatalf("ReadRawFrame must relay corrupted payloads: %v", err)
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
	for _, fx := range fixtures() {
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
