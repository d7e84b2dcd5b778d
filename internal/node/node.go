// Package node runs the sharded pipeline as a set of communicating
// nodes with a real wire boundary between them. Each role — shard
// node, DS committee, lookup node — is an actor that receives frames
// on one goroutine and does each job in one place: the committee's
// epoch is a collect state with a deadline, the lookup has one request
// path, a replica one apply path. Roles talk exclusively through
// encoded wire frames over an abstract Transport: an in-process channel
// switch for tests and benchmarks, or TCP sockets behind the same
// interface.
//
// The epoch protocol mirrors the monolithic pipeline stage for stage:
//
//	lookup ──Submit──▶ DS ──TxBatch──▶ shard nodes
//	shard nodes ──MicroBlock──▶ DS (merge, DS exec)
//	DS ──FinalBlock──▶ lookups, then shard nodes (file receipts; replay & verify)
//
// Because every hop is encoded bytes, fault injection can drop or
// corrupt actual frames (LinkFaults); a missing or undecodable
// MicroBlock surfaces at the DS as a nil block to FinalizeEpoch, the
// same loss a fault plan makes in the throughput harness: the batch is
// requeued. A FinalBlock a replica cannot apply is undone and fetched
// again. A byte-shipped epoch commits bit-identical state roots to the
// monolithic shard.Network path (see TestCrossModeStateRoots).
package node

import "errors"

// Sentinel errors. Wrapped failures are matched with errors.Is.
var (
	// ErrTransportClosed reports a send or receive on a closed endpoint.
	ErrTransportClosed = errors.New("node: transport closed")
	// ErrUnknownPeer reports a send to a name the transport has no route
	// for.
	ErrUnknownPeer = errors.New("node: unknown peer")
	// ErrTimeout reports a request that received no response in time
	// (the frame or its reply may have been dropped in transit).
	ErrTimeout = errors.New("node: request timed out")
)
