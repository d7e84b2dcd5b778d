package trie

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
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
	// loading is set while Load renders the whole state: expand then
	// adds each leaf to leaves, its key copied into arena, instead of
	// putting it in the trie.
	loading bool
	arena   []byte
	leaves  []Leaf
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
	s.pre = value.AppendCanonicalKey(append(s.pre[:0], 0x01), v)
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

// entryKey extends the field key s.key[:fk] by sep ‖ keypath and
// returns the entry key's length.
func (s *StateRoots) entryKey(fk int, keypath string) int {
	s.key = append(append(s.key[:fk], sep...), keypath...)
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

// TouchEntry re-commits the single map entry of field at keypath
// (chain.Keypath of its keys, as the entry's delta carries it) from st;
// an empty keypath is the field itself. The entry's trie key and its
// map lookups are built from the keypath: each separator in it ends
// one key's canonical form, which holds no separator byte. It maintains
// the empty-map markers on the entry's ancestors: an insert removes
// markers the now-non-empty intermediates may have left, and a delete
// walks ancestors deepest-first to mark the first surviving (possibly
// now-empty) map.
func (s *StateRoots) TouchEntry(addr chain.Address, field, keypath string, st *eval.MemState) {
	if keypath == "" {
		s.TouchWholeField(addr, field, st)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fk := s.fieldKey(addr, field)
	ek := s.entryKey(fk, keypath)
	// ancestor is the key of the map holding the entries below
	// keypath[:end], the field's own for end -1.
	ancestor := func(end int) int {
		if end < 0 {
			return fk
		}
		return fk + len(sep) + end
	}
	if v, ok := s.lookup(st, field, keypath); ok {
		// A scalar at this keypath has always been a scalar there (the
		// field's type fixes the depth of its leaves), so nothing lies
		// below the entry key and the Put in expand overwrites or
		// inserts the one leaf without unlinking it first. Only a map
		// value may replace a subtree.
		if _, isMap := v.(*value.Map); isMap {
			s.clear(ek)
		}
		// Every proper ancestor is a non-empty map now; drop any stale
		// empty-map marker sitting at its key (no-op if none).
		s.t.Delete(s.key[:fk])
		for end := range len(keypath) {
			if keypath[end] == sep[0] {
				s.t.Delete(s.key[:ancestor(end)])
			}
		}
		s.expand(ek, v)
		return
	}
	s.clear(ek)
	// Entry gone. Find the deepest surviving ancestor; if the delete
	// emptied it, it needs an explicit marker (its last child leaf
	// just left the trie).
	for end := len(keypath); end >= 0; {
		end = strings.LastIndex(keypath[:end], sep)
		av, ok := s.lookup(st, field, keypath[:max(end, 0)])
		if !ok {
			continue
		}
		if m, isMap := av.(*value.Map); isMap && m.Len() == 0 {
			s.t.Put(s.key[:ancestor(end)], emptyMapLeaf)
		}
		return
	}
}

// Load replaces the whole rendering with accounts' every account and
// every field of contracts: it renders each leaf — an account's once
// per run of equal accounts, as genesis provisions them — sorts them
// once and builds the trie from them in one pass (trie.Load), hashed.
// Genesis, snapshot restore and state images load the state this way;
// epochs keep it up to date leaf by leaf.
func (s *StateRoots) Load(accounts *chain.Accounts, contracts []*chain.Contract) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t = Trie{} // the old trie is garbage while the new one is built
	s.loading = true
	s.leaves = make([]Leaf, 0, accounts.Len())
	var last chain.Account
	var leaf [32]byte
	accounts.Range(func(addr chain.Address, acc chain.Account) bool {
		if len(s.leaves) == 0 || acc != last {
			last, leaf = acc, s.accountLeaf(acc)
		}
		s.add(s.accountKey(addr), leaf)
		return true
	})
	for _, c := range contracts {
		for name, v := range c.Snapshot().Fields {
			s.expand(s.fieldKey(c.Addr, name), v)
		}
	}
	sortLeaves(s.leaves, make([]Leaf, len(s.leaves)), 0)
	s.t = *Load(s.leaves)
	s.loading, s.arena, s.leaves = false, nil, nil
}

// sortLeaves sorts leaves, whose keys are distinct and agree on their
// first d bytes, by key, most significant byte first: a counting
// pass per key byte deals the leaves out by it through scratch, which is
// as long as leaves, and each run of one byte is sorted from the next
// byte on. Short runs are sorted by insertion.
func sortLeaves(leaves, scratch []Leaf, d int) {
	for len(leaves) > 24 {
		// Bucket 0 holds the keys that end at d, bucket b+1 byte b.
		var count [257]int
		for i := range leaves {
			count[bucket(&leaves[i], d)]++
		}
		if count[bucket(&leaves[0], d)] == len(leaves) && len(leaves[0].Key) > d {
			d++ // one byte for all: nothing to deal
			continue
		}
		var next [257]int
		for b, sum := 0, 0; b < len(count); b++ {
			next[b], sum = sum, sum+count[b]
		}
		for _, l := range leaves {
			b := bucket(&l, d)
			scratch[next[b]] = l
			next[b]++
		}
		copy(leaves, scratch)
		start := count[0] // the one key, if any, that ends at d
		for _, c := range count[1:] {
			sortLeaves(leaves[start:start+c], scratch[start:start+c], d+1)
			start += c
		}
		return
	}
	insertLeaves(leaves, d)
}

// bucket is l's bucket at key byte d: 0 where its key ends, else 1 +
// the byte.
func bucket(l *Leaf, d int) int {
	if d < len(l.Key) {
		return 1 + int(l.Key[d])
	}
	return 0
}

// insertLeaves sorts leaves, whose keys agree on their first d bytes, by
// key, by insertion.
func insertLeaves(leaves []Leaf, d int) {
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0 && bytes.Compare(leaves[j].Key[d:], leaves[j-1].Key[d:]) < 0; j-- {
			leaves[j], leaves[j-1] = leaves[j-1], leaves[j]
		}
	}
}

// add puts one rendered leaf in the trie, or, while Load renders, in
// its leaves. The arena is never grown in place, so the keys of the
// leaves already added stay where they are.
func (s *StateRoots) add(key []byte, h [32]byte) {
	if !s.loading {
		s.t.Put(key, h)
		return
	}
	if len(s.arena)+len(key) > cap(s.arena) {
		s.arena = make([]byte, 0, max(len(key), 64<<10))
	}
	start := len(s.arena)
	s.arena = append(s.arena, key...)
	s.leaves = append(s.leaves, Leaf{Key: s.arena[start:len(s.arena):len(s.arena)], Hash: h})
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
// become leaves (add), non-empty maps recurse per canonical entry key,
// each child key built over its parent's in the same buffer.
func (s *StateRoots) expand(n int, v value.Value) {
	m, isMap := v.(*value.Map)
	switch {
	case !isMap:
		s.add(s.key[:n], s.leafHash(v))
	case m.Len() == 0:
		s.add(s.key[:n], emptyMapLeaf)
	default:
		for ck, child := range m.Entries {
			s.key = append(append(s.key[:n], sep...), ck...)
			s.expand(len(s.key), child)
		}
	}
}

// lookup reads the value at keypath kp of field in canonical state,
// the field's own for an empty kp, walking nested maps by the canonical
// keys kp's separators divide it into.
func (s *StateRoots) lookup(st *eval.MemState, field, kp string) (value.Value, bool) {
	v, ok := st.Fields[field]
	for ok && kp != "" {
		m, isMap := v.(*value.Map)
		if !isMap {
			return nil, false
		}
		var ck string
		ck, kp, _ = strings.Cut(kp, sep)
		v, ok = m.GetCK(ck)
	}
	return v, ok
}
