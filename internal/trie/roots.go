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
}

// sep separates path components inside trie keys. It must equal the
// separator chain.Keypath joins canonical keys with, because entry
// keys embed chain.Keypath output verbatim.
const sep = "\x1f"

var emptyMapLeaf = sha256.Sum256([]byte("\x02empty-map"))

// leafHash commits to one scalar runtime value via its canonical
// rendering (type-tagged for ints, deterministic sorted order for
// nested structures).
func leafHash(v value.Value) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write([]byte(value.CanonicalKey(v)))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func accountLeaf(acc *chain.Account) [32]byte {
	var scratch [10]byte
	h := sha256.New()
	h.Write([]byte{0x03})
	h.Write([]byte(acc.Balance.String()))
	h.Write([]byte{0})
	h.Write(scratch[:binary.PutUvarint(scratch[:], acc.Nonce)])
	if acc.IsContract {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func accountKey(addr chain.Address) []byte {
	k := make([]byte, 0, 1+len(addr))
	k = append(k, 'a')
	return append(k, addr[:]...)
}

func fieldKey(addr chain.Address, field string) []byte {
	k := make([]byte, 0, 1+len(addr)+1+len(field))
	k = append(k, 'c')
	k = append(k, addr[:]...)
	k = append(k, sep...)
	return append(k, field...)
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

// TouchAccount re-commits one account after a balance/nonce change;
// acc == nil removes it.
func (s *StateRoots) TouchAccount(addr chain.Address, acc *chain.Account) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if acc == nil {
		s.t.Delete(accountKey(addr))
		return
	}
	s.t.Put(accountKey(addr), accountLeaf(acc))
}

// TouchWholeField re-renders one field from st (the contract's
// post-merge canonical state). Used for whole-field overwrites.
func (s *StateRoots) TouchWholeField(addr chain.Address, field string, st *eval.MemState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fk := fieldKey(addr, field)
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
	fk := fieldKey(addr, field)
	ek := entryKey(fk, keys)
	if v, ok := lookup(st, field, keys); ok {
		// A scalar at this keypath has always been a scalar there (the
		// field's type fixes the depth of its leaves), so nothing lies
		// below ek and the Put in expand overwrites or inserts the one
		// leaf without unlinking it first. Only a map value may replace
		// a subtree.
		if _, isMap := v.(*value.Map); isMap {
			s.clear(ek)
		}
		// Every proper ancestor is a non-empty map now; drop any stale
		// empty-map marker sitting at its key (no-op if none).
		s.t.Delete(fk)
		for i := 1; i < len(keys); i++ {
			s.t.Delete(entryKey(fk, keys[:i]))
		}
		s.expand(ek, v)
		return
	}
	s.clear(ek)
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
				ak = entryKey(fk, keys[:i])
			}
			s.t.Put(ak, emptyMapLeaf)
		}
		break
	}
}

// PutContractState replaces a contract's entire committed rendering
// (deploy-time initialization, snapshot restore).
func (s *StateRoots) PutContractState(addr chain.Address, st *eval.MemState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := make([]byte, 0, 1+len(addr))
	ck = append(ck, 'c')
	ck = append(ck, addr[:]...)
	s.t.DeletePrefix(ck)
	for name, v := range st.Fields {
		s.expand(fieldKey(addr, name), v)
	}
}

// clear removes the leaf at key and any subtree of deeper components.
// The sep guard keeps sibling keys that merely share a byte prefix
// ("field" vs "fieldX") intact.
func (s *StateRoots) clear(key []byte) {
	s.t.Delete(key)
	s.t.DeletePrefix(append(append([]byte(nil), key...), sep...))
}

// expand renders v below key: scalars and empty maps become leaves,
// non-empty maps recurse per canonical entry key.
func (s *StateRoots) expand(key []byte, v value.Value) {
	m, isMap := v.(*value.Map)
	if !isMap {
		s.t.Put(key, leafHash(v))
		return
	}
	if m.Len() == 0 {
		s.t.Put(key, emptyMapLeaf)
		return
	}
	for ck, child := range m.Entries {
		childKey := make([]byte, 0, len(key)+1+len(ck))
		childKey = append(childKey, key...)
		childKey = append(childKey, sep...)
		childKey = append(childKey, ck...)
		s.expand(childKey, child)
	}
}

func entryKey(fk []byte, keys []value.Value) []byte {
	kp := chain.Keypath(keys)
	ek := make([]byte, 0, len(fk)+1+len(kp))
	ek = append(ek, fk...)
	ek = append(ek, sep...)
	return append(ek, kp...)
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
