package shard

import "errors"

// Sentinel errors for the shard pipeline. Error returns from the
// package wrap these with %w, so callers branch with errors.Is instead
// of matching message strings; failure receipts, from a shard or from
// the DS committee, carry the wrapped sentinel in Receipt.Err and its
// message in Receipt.Error.
var (
	// ErrUnknownDeployer rejects a deployment from an address with no
	// account.
	ErrUnknownDeployer = errors.New("unknown deployer")
	// ErrUnknownContract rejects a call to an address with no deployed
	// contract.
	ErrUnknownContract = errors.New("unknown contract")
	// ErrGasExhausted rejects a transaction whose gas budget exceeds
	// the sender's per-shard allowance under split gas accounting
	// (Sec. 4.2.2).
	ErrGasExhausted = errors.New("per-shard gas allowance exceeded")
	// ErrOverflowGuard rejects a commutative write whose cumulative
	// in-shard delta exceeds the Sec. 6 conservative overflow bound.
	ErrOverflowGuard = errors.New("conservative overflow guard tripped")
	// ErrInsufficientBalance rejects a transfer, accepted amount or send
	// not covered by the payer's balance as the run sees it, and on the
	// DS committee a gas budget the sender's balance does not cover.
	ErrInsufficientBalance = errors.New("insufficient balance")
	// ErrMalformedMessage rejects a contract-emitted message without a
	// well-formed _recipient/_amount/_tag entry.
	ErrMalformedMessage = errors.New("malformed message")
	// ErrContractRecipient rejects an in-shard message addressed to a
	// contract (shards may only send to users; contract recipients are
	// filtered at dispatch).
	ErrContractRecipient = errors.New("in-shard message to a contract")
	// ErrCallDepthExceeded aborts a DS-committee message chain nested
	// deeper than maxCallDepth.
	ErrCallDepthExceeded = errors.New("call depth exceeded")
	// ErrEpochSkew rejects a FinalBlock applied to a replica that is
	// not at the block's epoch.
	ErrEpochSkew = errors.New("final block epoch skew")
	// ErrStateDivergence rejects a FinalBlock whose state root
	// disagrees with the replica's after replay.
	ErrStateDivergence = errors.New("replica state root diverged from final block")
)
