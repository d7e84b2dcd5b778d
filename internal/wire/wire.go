// Package wire defines the versioned binary encodings that cross node
// boundaries: transactions, micro blocks, state deltas, final blocks,
// and the small control messages of the node runtime (internal/node).
//
// Every message travels inside a self-describing frame:
//
//	magic(2) | version(1) | type(1) | length(4, big endian) |
//	crc32c(4, big endian, of payload) | payload
//
// The checksum makes in-transit corruption detectable at the frame
// layer: a receiver rejects a flipped payload byte with ErrDecode
// before any field of the message is parsed, which matters because a
// single bit flip inside (say) a balance delta's magnitude would
// otherwise decode into a structurally valid but wrong message.
//
// The payload encodings are hand-rolled over encoding/binary
// primitives: uvarint integers, length-prefixed byte strings, and
// sign+magnitude big integers. Map-shaped structures are serialised in
// sorted key order — a state delta's fields and entries in the order
// chain.StateDelta holds them, which is that order, and which its
// decoder requires — so encoding is deterministic: two nodes encoding
// the same value produce the same bytes, and the golden fixtures in
// testdata pin the format as a contract.
//
// Decoders never trust their input. Every malformed byte sequence
// fails with an error wrapping ErrDecode (fuzzed in fuzz_test.go)
// and a frame from a different format version fails with
// ErrVersionSkew, so a v1 reader rejects a v2 frame cleanly instead of
// misparsing it.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"slices"

	"cosplit/internal/chain"
)

// Version is the format version this package reads and writes. Bump it
// on any incompatible payload change; readers reject other versions
// with ErrVersionSkew. Version 2 replaced the FinalBlock's DS
// transaction batch with the DS run's state and account deltas.
const Version = 2

// frame header layout.
const (
	magic0, magic1 = 0xC0, 0x51 // "CoSplit"
	headerLen      = 2 + 1 + 1 + 4 + 4
	// HeaderLen is the frame header size in bytes (exported for
	// transport code that needs to address the payload region).
	HeaderLen = headerLen
	// MaxPayload bounds a frame's payload so a corrupt length field
	// cannot make a reader allocate unbounded memory.
	MaxPayload = 1 << 26
)

// crcTable is the Castagnoli polynomial table for payload checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors. Every decode failure wraps one of these, so callers
// branch with errors.Is.
var (
	// ErrDecode reports malformed bytes: bad magic, a truncated or
	// oversized payload, an unknown tag, or trailing garbage.
	ErrDecode = errors.New("wire: malformed message")
	// ErrVersionSkew reports a structurally valid frame written by a
	// different format version.
	ErrVersionSkew = errors.New("wire: version skew")
	// ErrUnencodable reports a value the format cannot carry (closures,
	// contract deployments — deployments are genesis-local and never
	// cross the wire).
	ErrUnencodable = errors.New("wire: unencodable value")
)

// MsgType tags a frame's payload.
type MsgType byte

// Frame payload types.
const (
	MsgTx         MsgType = 1
	MsgTxBatch    MsgType = 2
	MsgMicroBlock MsgType = 3
	MsgFinalBlock MsgType = 4
	MsgSubmit     MsgType = 5
	MsgSubmitResp MsgType = 6
	MsgStateQuery MsgType = 7
	MsgStateResp  MsgType = 8
	MsgStateDelta MsgType = 9
	// 12, 15–17 and 21 stay reserved: they tagged the retired
	// whole-contract snapshot record, the retired paged store's account
	// pages, contract pages and page index, and the retired incremental
	// snapshot file's base marker. Directories those builds wrote still
	// hold such frames, so no later record type may reuse the numbers.
)

func (t MsgType) String() string {
	switch t {
	case MsgTx:
		return "tx"
	case MsgTxBatch:
		return "tx_batch"
	case MsgMicroBlock:
		return "micro_block"
	case MsgFinalBlock:
		return "final_block"
	case MsgSubmit:
		return "submit"
	case MsgSubmitResp:
		return "submit_resp"
	case MsgStateQuery:
		return "state_query"
	case MsgStateResp:
		return "state_resp"
	case MsgStateDelta:
		return "state_delta"
	case MsgCheckpointBlock:
		return "checkpoint_block"
	case MsgSnapshotHeader:
		return "snapshot_header"
	case MsgSnapshotAccounts:
		return "snapshot_accounts"
	case MsgSnapshotEnd:
		return "snapshot_end"
	case MsgBlockRequest:
		return "block_request"
	case MsgBlockResponse:
		return "block_response"
	case MsgHello:
		return "hello"
	case MsgStateImage:
		return "state_image"
	}
	return fmt.Sprintf("msg(%d)", byte(t))
}

// FrameMsgType returns the message type of an encoded frame without
// decoding it (0 when the frame is too short to carry one). Transports
// use it to label traffic they do not otherwise interpret.
func FrameMsgType(frame []byte) MsgType {
	if len(frame) < headerLen {
		return 0
	}
	return MsgType(frame[3])
}

// AppendFrame appends a complete frame carrying payload to dst.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	dst = append(dst, magic0, magic1, Version, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// EncodeFrame builds a complete frame carrying payload.
func EncodeFrame(t MsgType, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, headerLen+len(payload)), t, payload)
}

// frameHeader checks a frame header's magic, version and length field
// and returns the payload length.
func frameHeader(hdr []byte) (int, error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, fmt.Errorf("%w: bad frame magic 0x%02x%02x", ErrDecode, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return 0, fmt.Errorf("%w: frame version %d, reader speaks %d", ErrVersionSkew, hdr[2], Version)
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: frame payload %d exceeds limit %d", ErrDecode, n, MaxPayload)
	}
	return int(n), nil
}

// checkPayload verifies a payload against its header's checksum.
func checkPayload(hdr, payload []byte) error {
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(hdr[8:12]); got != want {
		return fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrDecode, got, want)
	}
	return nil
}

// DecodeFrame parses one frame from the front of b, returning its type,
// payload, and the remaining bytes.
func DecodeFrame(b []byte) (t MsgType, payload, rest []byte, err error) {
	if len(b) < headerLen {
		return 0, nil, nil, fmt.Errorf("%w: truncated frame header (%d bytes)", ErrDecode, len(b))
	}
	n, err := frameHeader(b)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b) < headerLen+n {
		return 0, nil, nil, fmt.Errorf("%w: truncated frame payload (%d of %d bytes)", ErrDecode, len(b)-headerLen, n)
	}
	p := b[headerLen : headerLen+n]
	if err := checkPayload(b, p); err != nil {
		return 0, nil, nil, err
	}
	return MsgType(b[3]), p, b[headerLen+n:], nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	_, err := WriteFrameParts(w, t, payload)
	return err
}

// WriteFrameParts writes one frame whose payload is the concatenation
// of parts, without building that concatenation: the header's length is
// the parts' sum and its checksum runs over them in turn. It returns
// the bytes written. The journal appends a checkpoint and a sealed
// FinalBlock this way.
func WriteFrameParts(w io.Writer, t MsgType, parts ...[]byte) (int, error) {
	var n int
	var sum uint32
	for _, p := range parts {
		n += len(p)
		sum = crc32.Update(sum, crcTable, p)
	}
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: frame payload %d exceeds limit %d", ErrUnencodable, n, MaxPayload)
	}
	hdr := [headerLen]byte{magic0, magic1, Version, byte(t)}
	binary.BigEndian.PutUint32(hdr[4:8], uint32(n))
	binary.BigEndian.PutUint32(hdr[8:12], sum)
	written, err := w.Write(hdr[:])
	for _, p := range parts {
		if err != nil {
			break
		}
		var k int
		k, err = w.Write(p)
		written += k
	}
	return written, err
}

// AppendRawFrame reads one complete frame from r and appends its raw
// bytes, header included, to dst. Only the framing fields are validated
// — the payload (and its checksum) pass through untouched, so
// transports can relay corrupted frames to the consumer, whose
// DecodeFrame rejects them. io.EOF is returned unwrapped when the
// stream ends cleanly between frames. A relay that has written a frame
// out before it reads the next passes the same dst[:0] every time.
func AppendRawFrame(dst []byte, r io.Reader) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, headerLen)[:start+headerLen]
	n, err := readFrameHeader(r, dst[start:])
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, n)[:start+headerLen+n]
	if _, err := io.ReadFull(r, dst[start+headerLen:]); err != nil {
		return nil, fmt.Errorf("%w: short frame payload: %v", ErrDecode, err)
	}
	return dst, nil
}

// readFrameHeader fills hdr from r and returns the payload length it
// announces; io.EOF unwrapped when the stream ends before the header.
func readFrameHeader(r io.Reader, hdr []byte) (int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: short frame header: %v", ErrDecode, err)
	}
	return frameHeader(hdr)
}

// ReadFrame reads one complete frame from r. io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [headerLen]byte
	n, err := readFrameHeader(r, hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: short frame payload: %v", ErrDecode, err)
	}
	if err := checkPayload(hdr[:], payload); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[3]), payload, nil
}

// --- append-side primitives ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// big.Int sign tags.
const (
	bigNil  = 0 // nil pointer
	bigZero = 1
	bigPos  = 2
	bigNeg  = 3
)

func appendBig(b []byte, v *big.Int) []byte {
	switch {
	case v == nil:
		return append(b, bigNil)
	case v.Sign() == 0:
		return append(b, bigZero)
	case v.Sign() > 0:
		b = append(b, bigPos)
	default:
		b = append(b, bigNeg)
	}
	n := (v.BitLen() + 7) / 8
	b = binary.AppendUvarint(b, uint64(n))
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	v.FillBytes(b[len(b)-n:])
	return b
}

// appendBalance writes a balance as appendBig writes the same value.
func appendBalance(b []byte, v chain.Balance) []byte {
	if v.IsZero() {
		return append(b, bigZero)
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], v.Hi)
	binary.BigEndian.PutUint64(buf[8:], v.Lo)
	mag := bytes.TrimLeft(buf[:], "\x00")
	b = appendUvarint(append(b, bigPos), uint64(len(mag)))
	return append(b, mag...)
}

func appendAddr(b []byte, a chain.Address) []byte { return append(b, a[:]...) }

// --- decode-side primitives ---

// reader consumes a payload slice with sticky error handling: the
// first failure poisons the reader and every later read returns zero
// values, so decode functions check r.err once at the end.
//
// Each grammar production has one reader method. Those a role may want
// checked but not built (a block's deltas for a lookup, a receipt's
// events until a client asks) take a build flag: every check runs
// either way, and only the allocation of the result depends on it, so
// the validating read and the building read accept the same bytes.
type reader struct {
	b   []byte
	err error
	// scratch is the integer big(false) reads into, so checking an
	// integer's range allocates nothing.
	scratch big.Int
	// kp is where entryDelta renders an entry's keypath from its keys.
	kp []byte
}

// finish returns v, which r read, unless r failed or left bytes of its
// payload unread: every Decode function ends with it, so a message is
// accepted only when consumed exactly.
func finish[T any](r *reader, v T) (T, error) {
	if err := r.done(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// items reads a collection count (each element at least min bytes) and
// returns it with an empty slice sized for the elements when build, nil
// otherwise. The caller reads the elements; on a failed read the slice
// is partial, and the whole decode fails.
func items[T any](r *reader, min int, build bool) (int, []T) {
	n := r.count(min)
	if !build || n == 0 {
		return n, nil
	}
	return n, make([]T, 0, n)
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrDecode}, args...)...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("unexpected end of payload")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool tag")
		return false
	}
}

// skip consumes a length-prefixed byte string (or string) without
// copying it out: the result is a range of the payload.
func (r *reader) skip() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("byte string length %d exceeds remaining payload %d", n, len(r.b))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed byte string into a slice of its own.
func (r *reader) bytes() []byte { return bytes.Clone(r.skip()) }

func (r *reader) string() string { return string(r.skip()) }

// big reads a sign-tagged integer, nil for the nil tag, and returns it
// twice: n to check and kept to keep. When build both are one new
// integer; otherwise kept is nil and n is the reader's scratch integer,
// valid until the next read, so a value that is only checked allocates
// nothing and no built value can hold the scratch.
func (r *reader) big(build bool) (n, kept *big.Int) {
	tag := r.byte()
	if tag == bigNil {
		return nil, nil
	}
	if tag > bigNeg {
		r.fail("bad big.Int sign tag")
		return nil, nil
	}
	n = &r.scratch
	if build {
		kept = new(big.Int)
		n = kept
	}
	if tag == bigZero {
		return n.SetInt64(0), kept
	}
	n.SetBytes(r.skip())
	if tag == bigNeg {
		n.Neg(n)
	}
	return n, kept
}

// balance reads what appendBalance writes: a zero or positive
// integer no wider than 128 bits.
func (r *reader) balance() chain.Balance {
	tag := r.byte()
	if tag == bigZero || r.err != nil {
		return chain.Balance{}
	}
	if tag != bigPos {
		r.fail("bad balance sign tag %d", tag)
		return chain.Balance{}
	}
	mag := bytes.TrimLeft(r.skip(), "\x00")
	if len(mag) > 16 {
		r.fail("balance wider than 128 bits")
		return chain.Balance{}
	}
	var buf [16]byte
	copy(buf[16-len(mag):], mag)
	return chain.Balance{Hi: binary.BigEndian.Uint64(buf[:8]), Lo: binary.BigEndian.Uint64(buf[8:])}
}

// addr reads an address. It is small enough to inline, so a caller
// that only checks an address copies no bytes out.
func (r *reader) addr() (a chain.Address) {
	if b := r.addrBytes(); b != nil {
		a = chain.Address(b)
	}
	return a
}

// addrBytes consumes an address and returns it as a range of the
// payload; nil once the reader has failed.
func (r *reader) addrBytes() []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < len(chain.Address{}) {
		r.fail("truncated address")
		return nil
	}
	v := r.b[:len(chain.Address{})]
	r.b = r.b[len(v):]
	return v
}

// count reads a collection length and bounds it by the remaining
// payload (each element needs at least min bytes), so a corrupt count
// cannot drive a huge allocation.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(r.b)/min)+1 {
		r.fail("collection count %d exceeds remaining payload %d", n, len(r.b))
		return 0
	}
	return int(n)
}

// done verifies the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after message", ErrDecode, len(r.b))
	}
	return nil
}
