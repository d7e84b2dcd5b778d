package trie

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// StateRoots projects the chain's canonical state — accounts plus every
// contract's field store — onto one Trie and maintains it incrementally
// from the same granularity the epoch pipeline already produces:
// per-account applications and per-(field, keypath) delta entries.
//
// Key scheme (sep is the keypath separator, matching chain.Keypath):
//
//	"a" ‖ addr                       → account leaf
//	"c" ‖ addr ‖ sep ‖ field         → scalar field leaf / empty-map marker
//	"c" ‖ addr ‖ sep ‖ field ‖ sep ‖ keypath → map entry leaf (nested keys
//	                                   joined by sep, exactly chain.Keypath)
//
// A non-empty map contributes only its entry leaves; an empty map —
// including the empty intermediates MapDelete leaves behind — is an
// explicit marker leaf at its own key. That distinction makes the
// projection injective on observable state, so the root is a
// commitment: two states with equal roots render identically.
//
// Methods lock internally: Root mutates cached hashes, and replicas
// may verify roots from a different goroutine than the epoch driver.
type StateRoots struct {
	mu sync.Mutex
	t  Trie
	// key is the scratch every trie key is built in and pre the one
	// every leaf preimage is: the trie copies the key bytes it keeps.
	key, pre []byte
}

// sep separates path components inside trie keys. It must equal the
// separator chain.Keypath joins canonical keys with, because entry
// keys embed chain.Keypath output verbatim.
const sep = "\x1f"

var emptyMapLeaf = sha256.Sum256([]byte("\x02empty-map"))

// leafHash commits to one scalar runtime value via its canonical
// rendering (type-tagged for ints, deterministic sorted order for
// nested structures): sha256(0x01 ‖ canonical key).
func (s *StateRoots) leafHash(v value.Value) [32]byte {
	s.pre = append(append(s.pre[:0], 0x01), value.CanonicalKey(v)...)
	return sha256.Sum256(s.pre)
}

// accountLeaf is sha256(0x03 ‖ decimal balance ‖ 0 ‖ uvarint nonce ‖
// contract flag). The balance is formatted from its words into the
// scratch, as the digits big.Int.Append writes for it.
func (s *StateRoots) accountLeaf(acc chain.Account) [32]byte {
	b := acc.Balance.AppendDecimal(append(s.pre[:0], 0x03))
	b = append(b, 0)
	b = binary.AppendUvarint(b, acc.Nonce)
	if acc.IsContract {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	s.pre = b
	return sha256.Sum256(b)
}

// fieldKey builds "c" ‖ addr ‖ sep ‖ field in s.key and returns its
// length.
func (s *StateRoots) fieldKey(addr chain.Address, field string) int {
	s.key = append(append(append(append(s.key[:0], 'c'), addr[:]...), sep...), field...)
	return len(s.key)
}

// entryKey extends the field key s.key[:fk] by sep ‖ chain.Keypath(keys)
// and returns the entry key's length.
func (s *StateRoots) entryKey(fk int, keys []value.Value) int {
	s.key = append(append(s.key[:fk], sep...), chain.Keypath(keys)...)
	return len(s.key)
}

// Root returns the current state root as a hex string.
func (s *StateRoots) Root() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.t.Root()
	return hex.EncodeToString(h[:])
}

// Len returns the number of leaves (accounts + state components).
func (s *StateRoots) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Len()
}

// Bytes returns the memory the trie holds (Trie.Bytes).
func (s *StateRoots) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Bytes()
}

// TouchAccount re-commits one account after a balance/nonce change.
func (s *StateRoots) TouchAccount(addr chain.Address, acc chain.Account) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.Put(s.accountKey(addr), s.accountLeaf(acc))
}

// DeleteAccount removes one account's leaf.
func (s *StateRoots) DeleteAccount(addr chain.Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.Delete(s.accountKey(addr))
}

// accountKey builds "a" ‖ addr in s.key.
func (s *StateRoots) accountKey(addr chain.Address) []byte {
	s.key = append(append(s.key[:0], 'a'), addr[:]...)
	return s.key
}

// TouchWholeField re-renders one field from st (the contract's
// post-merge canonical state). Used for whole-field overwrites.
func (s *StateRoots) TouchWholeField(addr chain.Address, field string, st *eval.MemState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fk := s.fieldKey(addr, field)
	s.clear(fk)
	v, err := st.LoadField(field)
	if err != nil {
		return // field absent: the cleared subtree is the whole story
	}
	s.expand(fk, v)
}

// TouchEntry re-commits the single map entry (field, keys) from st.
// It maintains the empty-map markers on the entry's ancestors: an
// insert removes markers the now-non-empty intermediates may have
// left, and a delete walks ancestors deepest-first to mark the first
// surviving (possibly now-empty) map.
func (s *StateRoots) TouchEntry(addr chain.Address, field string, keys []value.Value, st *eval.MemState) {
	if len(keys) == 0 {
		s.TouchWholeField(addr, field, st)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fk := s.fieldKey(addr, field)
	if v, ok := lookup(st, field, keys); ok {
		// A scalar at this keypath has always been a scalar there (the
		// field's type fixes the depth of its leaves), so nothing lies
		// below the entry key and the Put in expand overwrites or
		// inserts the one leaf without unlinking it first. Only a map
		// value may replace a subtree.
		if _, isMap := v.(*value.Map); isMap {
			s.clear(s.entryKey(fk, keys))
		}
		// Every proper ancestor is a non-empty map now; drop any stale
		// empty-map marker sitting at its key (no-op if none).
		s.t.Delete(s.key[:fk])
		for i := 1; i < len(keys); i++ {
			s.t.Delete(s.key[:s.entryKey(fk, keys[:i])])
		}
		s.expand(s.entryKey(fk, keys), v)
		return
	}
	s.clear(s.entryKey(fk, keys))
	// Entry gone. Find the deepest surviving ancestor; if the delete
	// emptied it, it needs an explicit marker (its last child leaf
	// just left the trie).
	for i := len(keys) - 1; i >= 0; i-- {
		av, ok := lookup(st, field, keys[:i])
		if !ok {
			continue
		}
		if m, isMap := av.(*value.Map); isMap && m.Len() == 0 {
			ak := fk
			if i > 0 {
				ak = s.entryKey(fk, keys[:i])
			}
			s.t.Put(s.key[:ak], emptyMapLeaf)
		}
		break
	}
}

// PutContractState replaces a contract's entire committed rendering
// (deploy-time initialization, snapshot restore).
func (s *StateRoots) PutContractState(addr chain.Address, st *eval.MemState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.key = append(append(s.key[:0], 'c'), addr[:]...)
	s.t.DeletePrefix(s.key)
	for name, v := range st.Fields {
		s.expand(s.fieldKey(addr, name), v)
	}
}

// clear removes the leaf at s.key[:n] and any subtree of deeper
// components. The sep guard keeps sibling keys that merely share a
// byte prefix ("field" vs "fieldX") intact.
func (s *StateRoots) clear(n int) {
	s.t.Delete(s.key[:n])
	s.key = append(s.key[:n], sep...)
	s.t.DeletePrefix(s.key)
}

// expand renders v below the key s.key[:n]: scalars and empty maps
// become leaves, non-empty maps recurse per canonical entry key, each
// child key built over its parent's in the same buffer.
func (s *StateRoots) expand(n int, v value.Value) {
	m, isMap := v.(*value.Map)
	switch {
	case !isMap:
		s.t.Put(s.key[:n], s.leafHash(v))
	case m.Len() == 0:
		s.t.Put(s.key[:n], emptyMapLeaf)
	default:
		for ck, child := range m.Entries {
			s.key = append(append(s.key[:n], sep...), ck...)
			s.expand(len(s.key), child)
		}
	}
}

// lookup reads the value at (field, keys) from canonical state,
// walking nested maps by canonical key.
func lookup(st *eval.MemState, field string, keys []value.Value) (value.Value, bool) {
	v, err := st.LoadField(field)
	if err != nil {
		return nil, false
	}
	for _, k := range keys {
		m, ok := v.(*value.Map)
		if !ok {
			return nil, false
		}
		if v, ok = m.Get(k); !ok {
			return nil, false
		}
	}
	return v, true
}
