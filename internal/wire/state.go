package wire

import (
	"encoding/binary"
	"sort"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// Store record types (internal/store). These share the frame format —
// and therefore the CRC, version skew, and bounds checking — with the
// node-boundary messages: a journal or snapshot file is a sequence of
// ordinary frames, so a torn or bit-flipped tail is rejected by the
// same machinery that rejects a corrupt network frame.
const (
	// MsgCheckpointBlock is one journal record: a committed FinalBlock
	// together with the post-commit checkpoint it advanced the network
	// to.
	MsgCheckpointBlock MsgType = 10
	// MsgSnapshotHeader opens a snapshot file: the checkpoint the
	// snapshot captures and the state root it must restore to.
	MsgSnapshotHeader MsgType = 11
	// MsgSnapshotContract carries one contract's full field state.
	MsgSnapshotContract MsgType = 12
	// MsgSnapshotAccounts carries a batch of native accounts.
	MsgSnapshotAccounts MsgType = 13
	// MsgSnapshotEnd closes a snapshot file with the record counts the
	// reader must have seen; a snapshot without it is truncated.
	MsgSnapshotEnd MsgType = 14
	// MsgSnapshotSince follows the header of an incremental snapshot
	// file: the epoch of the snapshot file (or of genesis) whose state
	// the file's records are written over. A full file has none.
	MsgSnapshotSince MsgType = 21
)

// CheckpointBlock is the journal record appended after every committed
// epoch: the sealed FinalBlock plus the checkpoint the commit advanced
// the network to (so recovery restores the exact epoch, block number,
// and next transaction id without re-deriving them).
type CheckpointBlock struct {
	Checkpoint shard.Checkpoint
	Block      *shard.FinalBlock
}

// AppendCheckpoint appends a checkpoint's encoding: the head of a
// journal record, which the block's payload follows to the end of the
// frame.
func AppendCheckpoint(b []byte, cp shard.Checkpoint) []byte {
	b = appendUvarint(b, cp.Epoch)
	b = appendUvarint(b, cp.BlockNumber)
	return appendUvarint(b, cp.NextTxID)
}

// DecodeCheckpointBlock decodes a journal record payload.
func DecodeCheckpointBlock(b []byte) (*CheckpointBlock, error) {
	r := &reader{b: b}
	cp := r.checkpoint()
	if r.err != nil {
		return nil, r.err
	}
	// The FinalBlock payload runs to the end of the record;
	// DecodeFinalBlock enforces exact consumption.
	fb, err := DecodeFinalBlock(r.b)
	if err != nil {
		return nil, err
	}
	return &CheckpointBlock{Checkpoint: cp, Block: fb}, nil
}

func (r *reader) checkpoint() shard.Checkpoint {
	return shard.Checkpoint{Epoch: r.uvarint(), BlockNumber: r.uvarint(), NextTxID: r.uvarint()}
}

// SnapshotHeader opens a snapshot file: the checkpoint the full-state
// dump captures and the authenticated root the restored state must
// rebuild to (recovery verifies it, so a snapshot that silently lost a
// record fails loudly instead of resuming from wrong state).
type SnapshotHeader struct {
	Checkpoint shard.Checkpoint
	Root       string
}

// EncodeSnapshotHeader encodes a snapshot header.
func EncodeSnapshotHeader(h *SnapshotHeader) []byte {
	return appendString(AppendCheckpoint(make([]byte, 0, 96), h.Checkpoint), h.Root)
}

// DecodeSnapshotHeader decodes a snapshot header payload.
func DecodeSnapshotHeader(b []byte) (*SnapshotHeader, error) {
	r := &reader{b: b}
	return finish(r, &SnapshotHeader{Checkpoint: r.checkpoint(), Root: r.string()})
}

// SnapshotSince marks a snapshot file as incremental. Its records —
// MsgStateDelta frames of post-values (Overwrite and Delete entries,
// whole fields) and MsgSnapshotAccounts batches — hold only what
// changed after the state as of Epoch: the header epoch of the snapshot
// file before it, or the genesis epoch when no file precedes it.
// Recovery applies the file only on top of exactly that state.
type SnapshotSince struct {
	Epoch uint64
}

// EncodeSnapshotSince encodes an incremental snapshot's base marker.
func EncodeSnapshotSince(s *SnapshotSince) []byte {
	return appendUvarint(make([]byte, 0, binary.MaxVarintLen64), s.Epoch)
}

// DecodeSnapshotSince decodes an incremental snapshot's base marker.
func DecodeSnapshotSince(b []byte) (*SnapshotSince, error) {
	r := &reader{b: b}
	return finish(r, &SnapshotSince{Epoch: r.uvarint()})
}

// SnapshotContract carries one contract's complete field state. Fields
// are encoded in sorted name order, so snapshots of the same state are
// byte-identical.
type SnapshotContract struct {
	Addr   chain.Address
	Fields map[string]value.Value
}

// EncodeSnapshotContract encodes one contract's state.
func EncodeSnapshotContract(c *SnapshotContract) ([]byte, error) {
	b := make([]byte, 0, 256)
	b = appendAddr(b, c.Addr)
	names := make([]string, 0, len(c.Fields))
	for n := range c.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	b = appendUvarint(b, uint64(len(names)))
	var err error
	for _, n := range names {
		b = appendString(b, n)
		if b, err = appendValue(b, c.Fields[n]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeSnapshotContract decodes one contract's state payload.
func DecodeSnapshotContract(b []byte) (*SnapshotContract, error) {
	r := &reader{b: b}
	return finish(r, r.snapshotContract())
}

func (r *reader) snapshotContract() *SnapshotContract {
	c := &SnapshotContract{Addr: r.addr()}
	n := r.count(2)
	if n > 0 {
		c.Fields = make(map[string]value.Value, n)
	}
	for ; n > 0 && r.err == nil; n-- {
		name := r.string()
		if v := r.value(0, true); r.err == nil {
			c.Fields[name] = v
		}
	}
	return c
}

// SnapshotAccount is one native account's snapshot row.
type SnapshotAccount struct {
	Addr       chain.Address
	Balance    chain.Balance
	Nonce      uint64
	IsContract bool
}

// EncodeSnapshotAccounts encodes a batch of accounts. The store writes
// accounts in sorted address order, batched so a single frame stays
// small; the encoder accepts any order (the snapshot reader does not
// depend on it).
func EncodeSnapshotAccounts(accs []SnapshotAccount) []byte {
	b := make([]byte, 0, 32+32*len(accs))
	b = appendUvarint(b, uint64(len(accs)))
	for i := range accs {
		b = appendAddr(b, accs[i].Addr)
		b = appendBalance(b, accs[i].Balance)
		b = appendUvarint(b, accs[i].Nonce)
		b = appendBool(b, accs[i].IsContract)
	}
	return b
}

// DecodeSnapshotAccounts decodes an account batch payload.
func DecodeSnapshotAccounts(b []byte) ([]SnapshotAccount, error) {
	r := &reader{b: b}
	return finish(r, r.snapshotAccounts())
}

func (r *reader) snapshotAccounts() []SnapshotAccount {
	n, accs := items[SnapshotAccount](r, 23, true)
	for ; n > 0 && r.err == nil; n-- {
		a := SnapshotAccount{Addr: r.addr()}
		a.Balance = r.balance()
		a.Nonce, a.IsContract = r.uvarint(), r.bool()
		accs = append(accs, a)
	}
	return accs
}

// SnapshotEnd closes a snapshot file with the totals the reader must
// have accumulated; a mismatch (or a missing end record) marks the
// snapshot truncated. In an incremental file Contracts counts the
// MsgStateDelta frames.
type SnapshotEnd struct {
	Contracts uint64
	Accounts  uint64
}

// EncodeSnapshotEnd encodes a snapshot trailer.
func EncodeSnapshotEnd(e *SnapshotEnd) []byte {
	b := appendUvarint(make([]byte, 0, 16), e.Contracts)
	return appendUvarint(b, e.Accounts)
}

// DecodeSnapshotEnd decodes a snapshot trailer payload.
func DecodeSnapshotEnd(b []byte) (*SnapshotEnd, error) {
	r := &reader{b: b}
	return finish(r, &SnapshotEnd{Contracts: r.uvarint(), Accounts: r.uvarint()})
}
