package wire

import (
	"cosplit/internal/chain"
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
	// MsgSnapshotAccounts carries a batch of native accounts.
	MsgSnapshotAccounts MsgType = 13
	// MsgSnapshotEnd closes a snapshot file with the record counts the
	// reader must have seen; a snapshot without it is truncated.
	MsgSnapshotEnd MsgType = 14
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

// DecodeCheckpointBlock decodes a journal record payload. Its block is
// read as a replica reads one (DecodeFinalBlockState): replayed or
// served by its sealed bytes, a journaled block's receipts are checked
// and not built.
func DecodeCheckpointBlock(b []byte) (*CheckpointBlock, error) {
	r := &reader{b: b}
	cp := r.checkpoint()
	if r.err != nil {
		return nil, r.err
	}
	// The FinalBlock payload runs to the end of the record;
	// DecodeFinalBlockState enforces exact consumption.
	fb, err := DecodeFinalBlockState(r.b)
	if err != nil {
		return nil, err
	}
	return &CheckpointBlock{Checkpoint: cp, Block: fb}, nil
}

func (r *reader) checkpoint() shard.Checkpoint {
	return shard.Checkpoint{Epoch: r.uvarint(), BlockNumber: r.uvarint(), NextTxID: r.uvarint()}
}

// SnapshotHeader opens a snapshot file: the checkpoint the state
// captures and the authenticated root the restored state must
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
// snapshot truncated. Contracts counts the MsgStateDelta records, in a
// full file as in an incremental one.
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
