package wire

import (
	"encoding/binary"
	"slices"

	"cosplit/internal/shard"
)

// Catch-up protocol types (internal/node). A replica that detects it
// is behind the DS committee — a TxBatch or FinalBlock arrives for a
// future epoch — requests the FinalBlocks it missed by epoch range and
// replays them, root-verified, before resuming live execution; when the
// committee's journal no longer holds the first of them, it answers
// with a state image instead.
const (
	// MsgBlockRequest asks the DS committee for committed FinalBlocks
	// in an epoch range.
	MsgBlockRequest MsgType = 18
	// MsgBlockResponse answers a MsgBlockRequest with a contiguous run
	// of FinalBlocks starting at the requested epoch.
	MsgBlockResponse MsgType = 19
	// MsgHello announces a node to the DS committee when it starts, so
	// dynamically joining peers (lookups in particular) are learned
	// without static configuration.
	MsgHello MsgType = 20
	// MsgStateImage answers a MsgBlockRequest the committee's journal
	// cannot serve, in a run of frames: each payload is one record of a
	// full snapshot file of the committee's live state, byte for byte,
	// from its MsgSnapshotHeader to its MsgSnapshotEnd, which the replica
	// applies whole. No frame is larger than one record.
	MsgStateImage MsgType = 22
)

// BlockRequest asks for the committed FinalBlocks of epochs
// [From, To) — To is exclusive, so a replica at epoch 3 that saw a
// block for epoch 7 asks for [3, 7).
type BlockRequest struct {
	From uint64
	To   uint64
}

// EncodeBlockRequest encodes a block request.
func EncodeBlockRequest(q *BlockRequest) []byte {
	b := appendUvarint(make([]byte, 0, 16), q.From)
	return appendUvarint(b, q.To)
}

// DecodeBlockRequest decodes a block request payload.
func DecodeBlockRequest(b []byte) (*BlockRequest, error) {
	r := &reader{b: b}
	q := &BlockRequest{From: r.uvarint(), To: r.uvarint()}
	if q.To < q.From {
		r.fail("block request range [%d, %d) is inverted", q.From, q.To)
	}
	return finish(r, q)
}

// BlockResponse carries a contiguous run of committed FinalBlocks
// starting at epoch From (Blocks[i] is epoch From+i), plus the
// responder's current head epoch so the requester can tell a fully
// served range from a truncated one and re-request the remainder. A
// response may carry fewer blocks than asked for (the responder caps
// response size) or none at all (the requester is not behind: Head <=
// From). A range compacted out of the journal is answered with a
// MsgStateImage instead.
type BlockResponse struct {
	From   uint64
	Head   uint64
	Blocks []*shard.FinalBlock
}

// AppendBlockResponse appends a block response carrying the given
// sealed FinalBlock payloads, blocks[i] being epoch from+i. Each
// payload is length-prefixed (unlike the journal record, which runs to
// the end of its frame) so several can share one response. The
// committee answers catch-up requests with it straight from its
// journal's payloads.
func AppendBlockResponse(b []byte, from, head uint64, blocks [][]byte) []byte {
	n := 32
	for _, p := range blocks {
		n += len(p) + binary.MaxVarintLen64
	}
	b = slices.Grow(b, n)
	b = appendUvarint(b, from)
	b = appendUvarint(b, head)
	b = appendUvarint(b, uint64(len(blocks)))
	for _, p := range blocks {
		b = appendBytes(b, p)
	}
	return b
}

// DecodeBlockResponse decodes a block response payload, each block as
// the replica that asked for it applies one (DecodeFinalBlockState):
// receipts checked, not built. The contiguity contract is enforced
// here: Blocks[i].Epoch must equal From+i, so a malformed or
// adversarial response cannot smuggle out-of-range blocks past the
// replay loop.
func DecodeBlockResponse(b []byte) (*BlockResponse, error) {
	r := &reader{b: b}
	resp := &BlockResponse{From: r.uvarint(), Head: r.uvarint()}
	n := r.count(2)
	if n > 0 {
		resp.Blocks = make([]*shard.FinalBlock, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		enc := r.bytes()
		if r.err != nil {
			break
		}
		fb, err := DecodeFinalBlockState(enc)
		if err != nil {
			r.err = err
			break
		}
		if want := resp.From + uint64(i); fb.Epoch != want {
			r.fail("block response not contiguous: slot %d carries epoch %d, want %d", i, fb.Epoch, want)
			break
		}
		resp.Blocks = append(resp.Blocks, fb)
	}
	return finish(r, resp)
}

// Hello announces a node to the DS committee: its transport name (the
// address frames route back to) and its role. The DS uses lookup
// hellos to learn the fan-out set for FinalBlocks at runtime instead
// of from static configuration.
type Hello struct {
	Name string
	Role string
}

// EncodeHello encodes a hello announcement.
func EncodeHello(h *Hello) []byte {
	b := appendString(make([]byte, 0, 32), h.Name)
	return appendString(b, h.Role)
}

// DecodeHello decodes a hello payload.
func DecodeHello(b []byte) (*Hello, error) {
	r := &reader{b: b}
	return finish(r, &Hello{Name: r.string(), Role: r.string()})
}
