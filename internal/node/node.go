// Package node runs the sharded pipeline as a set of communicating
// nodes with a real wire boundary between them. Each role — shard
// node, DS committee, lookup node — is a handler: it holds the role's
// state and turns one event (a frame, a deadline, a client call) into
// effects (sends, deadlines, replies). One small runtime per role owns
// everything concurrent: the receive goroutine, the lock, the one
// timer and the close protocol. Roles talk only through encoded wire
// frames over an abstract Transport — an in-process channel switch or
// TCP sockets — and take each kind of frame only from the peer that
// may send it.
//
// The epoch protocol mirrors the monolithic pipeline stage for stage,
// and commits bit-identical state roots (see TestCrossModeStateRoots):
//
//	lookup ──Submit──▶ DS ──TxBatch──▶ shard nodes
//	shard nodes ──MicroBlock──▶ DS (merge, DS exec)
//	DS ──FinalBlock──▶ lookups, then shard nodes (file receipts; replay & verify)
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
