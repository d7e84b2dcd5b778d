package chain

import (
	"math/big"

	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/value"
)

// TxKind classifies transactions.
type TxKind int

// Transaction kinds.
const (
	// TxTransfer is a plain user-to-user payment.
	TxTransfer TxKind = iota
	// TxCall invokes a contract transition.
	TxCall
	// TxDeploy deploys a new contract.
	TxDeploy
)

// Deployment is the payload of a contract-deploying transaction.
type Deployment struct {
	Source string
	Params map[string]value.Value
	// Query is the developer-selected sharding query; the miners
	// validate the resulting signature (Sec. 4.3).
	Query *signature.Query
	// ProposedSignature is the developer-computed signature; nodes
	// re-derive and compare (validation).
	ProposedSignature *signature.Signature
}

// Tx is a transaction submitted to the lookup nodes.
type Tx struct {
	ID     uint64
	Kind   TxKind
	From   Address
	To     Address
	Nonce  uint64
	Amount *big.Int
	// GasLimit bounds execution cost; GasPrice is charged per unit.
	GasLimit uint64
	GasPrice uint64
	// Transition and Args are set for TxCall.
	Transition string
	Args       map[string]value.Value
	// Deploy is set for TxDeploy.
	Deploy *Deployment
}

// Receipt records the outcome of a processed transaction.
type Receipt struct {
	TxID    uint64
	Success bool
	GasUsed uint64
	Error   string
	// Err is the typed form of Error: the executor's sentinel (e.g.
	// shard.ErrGasExhausted) wrapped with the transaction's id, sender
	// and nonce, so callers can errors.Is through requeue/retry paths.
	// Not serialised — receipts cross the wire as strings.
	Err error `json:"-"`
	// Events is the flat list of emitted event payloads, as the executor
	// that ran the transaction built them. A receipt decoded from a block
	// leaves it nil and carries RawEvents instead.
	Events []value.Msg
	// RawEvents is the events' wire encoding (their count, then each
	// message): a range of bytes somebody else owns — the payload of the
	// block the receipt was decoded from, or the lookup's receipt log
	// (node.ReceiptLog, the one role that keeps receipts) that filed the
	// block's receipt section and read this receipt back from it. The
	// decoder has validated every byte of it; wire.ReceiptEvents builds
	// the messages on demand, and an encoder copies it when Events is
	// nil. Nobody writes through it, and it keeps its owner's bytes
	// alive only while the receipt itself is held.
	RawEvents []byte `json:"-"`
	// Shard is the committee that processed the transaction
	// (-1 denotes the DS committee).
	Shard int
	Epoch uint64
}
