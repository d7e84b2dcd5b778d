package shard

import (
	"cosplit/internal/chain"
	"cosplit/internal/trie"
)

// Checkpoint is the network's durable progress marker: the epoch and
// block number the next FinalBlock will carry, and the next
// transaction id to assign. Persisting NextTxID alongside the epoch is
// what makes restart recovery bit-identical: a driver that resubmits
// its post-crash stream sees the same ids, so receipts and FinalBlocks
// replay byte-for-byte.
type Checkpoint struct {
	Epoch       uint64
	BlockNumber uint64
	NextTxID    uint64
}

// StateStore is the pluggable durability backend (AttachStateStore).
// After every committed epoch — FinalizeEpoch on the committee,
// ApplyFinalBlock on a replica — the network hands the store the
// sealed FinalBlock and its post-commit checkpoint. The store is
// expected to journal the block durably before returning; an error
// aborts the pipeline (a network that cannot persist must not keep
// committing).
//
// The interface lives here rather than in the store package so the
// shard layer stays free of on-disk concerns (and because the wire
// codecs the store reuses already import shard).
type StateStore interface {
	EpochCommitted(n *Network, fb *FinalBlock, cp Checkpoint) error
}

// Checkpoint returns the network's current progress marker.
func (n *Network) Checkpoint() Checkpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Checkpoint{Epoch: n.Epoch, BlockNumber: n.BlockNumber, NextTxID: n.nextTxID}
}

// StateLeaves returns the number of leaves under the state root: one
// per account and one per contract state component (scalar field, map
// entry, or empty-map marker). It is the size a full dump of the state
// has, in the unit a delta's entries are counted in.
func (n *Network) StateLeaves() int { return n.roots.Len() }

// RestoreCheckpoint rewinds or advances the progress marker to a
// recovered checkpoint. Only for recovery and for applying a state
// image: the caller must also have restored the matching state.
func (n *Network) RestoreCheckpoint(cp Checkpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.Epoch = cp.Epoch
	n.BlockNumber = cp.BlockNumber
	n.nextTxID = cp.NextTxID
}

// AttachStateStore attaches (or detaches, with nil) a durability
// backend: after every committed epoch the network hands it the sealed
// FinalBlock and post-commit checkpoint (see StateStore), and every
// epoch collects its FinalBlock. It is a method, not an Option,
// because cluster networks come out of a shared genesis function that
// cannot carry per-role options. Must be called before the network
// runs epochs.
func (n *Network) AttachStateStore(s StateStore) { n.store = s }

// ReplayFinalBlock applies a journaled FinalBlock during recovery:
// identical to ApplyFinalBlock — both commit phases, root
// verification — except the attached StateStore is not notified (the
// block is already on disk; re-appending it would duplicate the
// journal).
func (n *Network) ReplayFinalBlock(fb *FinalBlock) error {
	return n.replayFinalBlock(fb)
}

// RebuildStateRoots reconstructs the incremental root trie from the
// full canonical state in one sorted pass (trie.StateRoots.Load).
// Genesis provisioning (CreateUsers) and recovery, after a snapshot
// restore or a state image, use it; steady-state epochs never need it
// (the pipeline maintains the trie per delta).
func (n *Network) RebuildStateRoots() {
	n.roots.Load(n.Accounts, n.Contracts.All())
}

// RecomputeStateRoot renders the root from scratch, independently of
// the incrementally maintained trie: a trie loaded from the whole
// state, where StateRoot's was built up by Put and Delete. It is the
// differential oracle the root-equivalence tests compare StateRoot
// against; production paths use StateRoot.
func (n *Network) RecomputeStateRoot() string {
	fresh := &trie.StateRoots{}
	fresh.Load(n.Accounts, n.Contracts.All())
	return fresh.Root()
}

// touchAccount re-commits one account in the root trie from canonical
// state; an absent account deletes its leaf.
func (n *Network) touchAccount(addr chain.Address) {
	if acc, ok := n.Accounts.Get(addr); ok {
		n.roots.TouchAccount(addr, acc)
	} else {
		n.roots.DeleteAccount(addr)
	}
}

// touchPhase re-commits the root-trie components one commit phase
// wrote, reading their values from canonical state: every account of
// its account delta, and every state component of its deltas.
// Whole-field writes re-render the field subtree; entry writes touch
// single leaves.
func (n *Network) touchPhase(p phase) {
	for _, d := range p.deltas {
		st := n.Contracts.Get(d.Contract).Snapshot()
		for _, fd := range d.Fields {
			if fd.Whole != nil {
				n.roots.TouchWholeField(d.Contract, fd.Name, st)
				continue
			}
			for _, e := range fd.Entries {
				n.roots.TouchEntry(d.Contract, fd.Name, e.Keypath, st)
			}
		}
	}
	if p.accounts == nil {
		return
	}
	for addr := range p.accounts.BalanceDeltas {
		n.touchAccount(addr)
	}
	for addr := range p.accounts.Nonces {
		if _, ok := p.accounts.BalanceDeltas[addr]; !ok {
			n.touchAccount(addr)
		}
	}
}
