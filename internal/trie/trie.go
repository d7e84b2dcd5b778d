// Package trie maintains the authenticated state root incrementally: a
// byte-level path-compressed radix trie whose leaves are 32-byte value
// hashes and whose root hash commits to the exact key→hash mapping.
//
// The structure is canonical: the same key set with the same leaf
// hashes produces the same root regardless of insertion and deletion
// order. The invariants that make it so:
//
//   - the root node always carries the empty prefix and is never
//     collapsed or removed;
//   - every other node with no value has at least two children (a
//     valueless single-child node is merged into its child on delete);
//   - a node's children are kept in ascending order of their edge byte
//     (the first byte of the child's prefix), so sibling order is fixed.
//
// Hashes are cached per node and recomputed lazily: mutations mark the
// touched path dirty, and Root walks only dirty nodes. An epoch that
// changes k entries therefore rehashes O(k · depth) nodes, not the
// whole state; each of those nodes hashes one preimage that lists all
// of its children, so a node's cost grows with its fan-out (at most
// 256 × 33 bytes).
package trie

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// Trie maps byte-string keys to 32-byte leaf hashes. The zero value is
// an empty trie ready for use. Not safe for concurrent use.
type Trie struct {
	root  *node
	count int
	// buf is the preimage buffer rehash reuses for every dirty node.
	buf []byte
}

type node struct {
	prefix []byte // compressed path below the parent edge
	hasVal bool
	dirty  bool
	val    [32]byte
	hash   [32]byte
	// br holds the children; nil on a leaf, which most nodes are, so a
	// leaf does not carry two empty slice headers.
	br *branch
}

// branch is a node's children in ascending edge order: edges[i] ==
// kids[i].prefix[0]. The edge bytes are kept beside the pointers so
// lookups and rehash scan one small byte slice instead of chasing every
// child.
type branch struct {
	edges []byte
	kids  []*node
}

// child returns the child on edge b, or nil.
func (n *node) child(b byte) *node {
	if n.br == nil {
		return nil
	}
	if i := bytes.IndexByte(n.br.edges, b); i >= 0 {
		return n.br.kids[i]
	}
	return nil
}

// setChild links c below n on c's edge byte, replacing the child
// already on that edge or inserting at the position that keeps the
// edges ascending.
func (n *node) setChild(c *node) {
	if n.br == nil {
		n.br = &branch{}
	}
	br, b := n.br, c.prefix[0]
	i, found := slices.BinarySearch(br.edges, b)
	if found {
		br.kids[i] = c
		return
	}
	br.edges = slices.Insert(br.edges, i, b)
	br.kids = slices.Insert(br.kids, i, c)
}

// removeChild unlinks the child on edge b, if any. A node that loses
// its last child is a leaf again.
func (n *node) removeChild(b byte) {
	if n.br == nil {
		return
	}
	br := n.br
	i := bytes.IndexByte(br.edges, b)
	switch {
	case i < 0:
	case len(br.kids) == 1:
		n.br = nil
	default:
		br.edges = slices.Delete(br.edges, i, i+1)
		br.kids = slices.Delete(br.kids, i, i+1)
	}
}

// Len returns the number of keys present.
func (t *Trie) Len() int { return t.count }

// Get returns the leaf hash stored for key.
func (t *Trie) Get(key []byte) ([32]byte, bool) {
	n := t.root
	for n != nil {
		if len(key) == 0 {
			return n.val, n.hasVal
		}
		c := n.child(key[0])
		if c == nil || commonPrefix(c.prefix, key) != len(c.prefix) {
			return [32]byte{}, false
		}
		key = key[len(c.prefix):]
		n = c
	}
	return [32]byte{}, false
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Put inserts or overwrites the leaf hash for key.
func (t *Trie) Put(key []byte, h [32]byte) {
	if t.root == nil {
		t.root = &node{dirty: true}
	}
	t.putAt(t.root, key, h)
}

// putAt inserts into n's subtree; key is the remainder after n's own
// prefix has been consumed.
func (t *Trie) putAt(n *node, key []byte, h [32]byte) {
	n.dirty = true
	if len(key) == 0 {
		if !n.hasVal {
			t.count++
		}
		n.val, n.hasVal = h, true
		return
	}
	c := n.child(key[0])
	if c == nil {
		n.setChild(&node{
			prefix: append([]byte(nil), key...),
			val:    h,
			hasVal: true,
			dirty:  true,
		})
		t.count++
		return
	}
	m := commonPrefix(c.prefix, key)
	if m == len(c.prefix) {
		t.putAt(c, key[m:], h)
		return
	}
	// The edge diverges inside c's prefix: split it. c keeps its
	// subtree (its children's cached hashes stay valid) but its own
	// hash covers the now-shortened prefix, so it goes dirty. The split
	// node takes c's place on the same edge byte, so n's order holds.
	split := &node{
		prefix: append([]byte(nil), c.prefix[:m]...),
		dirty:  true,
	}
	c.prefix = append([]byte(nil), c.prefix[m:]...)
	c.dirty = true
	split.setChild(c)
	n.setChild(split)
	t.putAt(split, key[m:], h)
}

// Delete removes key; it reports whether the key was present.
func (t *Trie) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	del, _ := t.deleteAt(t.root, key)
	return del
}

// deleteAt removes key from n's subtree and reports (deleted,
// removeSelf); removeSelf asks the caller to unlink n entirely. The
// root is never unlinked (the top-level caller ignores removeSelf).
func (t *Trie) deleteAt(n *node, key []byte) (deleted, removeSelf bool) {
	if len(key) == 0 {
		if !n.hasVal {
			return false, false
		}
		n.hasVal = false
		n.dirty = true
		t.count--
		return true, n.br == nil
	}
	c := n.child(key[0])
	if c == nil {
		return false, false
	}
	m := commonPrefix(c.prefix, key)
	if m != len(c.prefix) {
		return false, false
	}
	del, rm := t.deleteAt(c, key[m:])
	if !del {
		return false, false
	}
	n.dirty = true
	if rm {
		n.removeChild(key[0])
	} else {
		collapse(c)
	}
	return true, !n.hasVal && n.br == nil
}

// DeletePrefix removes every key that starts with p (p itself
// included) and returns how many keys were removed. An empty p clears
// the trie.
func (t *Trie) DeletePrefix(p []byte) int {
	if t.root == nil {
		return 0
	}
	if len(p) == 0 {
		n := t.count
		t.root = &node{dirty: true}
		t.count = 0
		return n
	}
	removed, _ := t.deletePrefixAt(t.root, p)
	return removed
}

func (t *Trie) deletePrefixAt(n *node, p []byte) (removed int, removeSelf bool) {
	c := n.child(p[0])
	if c == nil {
		return 0, false
	}
	m := commonPrefix(c.prefix, p)
	switch {
	case m == len(p):
		// All of p matched inside c's prefix: c's whole subtree is
		// under the prefix.
		sz := subtreeSize(c)
		n.removeChild(p[0])
		t.count -= sz
		removed = sz
	case m == len(c.prefix):
		rem, rm := t.deletePrefixAt(c, p[m:])
		if rem == 0 {
			return 0, false
		}
		if rm {
			n.removeChild(p[0])
		} else {
			collapse(c)
		}
		removed = rem
	default:
		return 0, false
	}
	n.dirty = true
	return removed, !n.hasVal && n.br == nil
}

// collapse merges a valueless single-child node into its child,
// restoring the canonical-structure invariant after a delete. The
// merged node keeps c's first prefix byte, so its place among its
// siblings is unchanged, and it adopts the child's already ordered
// children as they are.
func collapse(c *node) {
	if c.hasVal || c.br == nil || len(c.br.kids) != 1 {
		return
	}
	only := c.br.kids[0]
	c.prefix = append(c.prefix, only.prefix...)
	c.val, c.hasVal = only.val, only.hasVal
	c.br = only.br
	c.dirty = true
}

func subtreeSize(n *node) int {
	sz := 0
	if n.hasVal {
		sz = 1
	}
	if n.br != nil {
		for _, c := range n.br.kids {
			sz += subtreeSize(c)
		}
	}
	return sz
}

// Root returns the trie's root hash, recomputing only nodes dirtied
// since the last call.
func (t *Trie) Root() [32]byte {
	if t.root == nil {
		t.root = &node{dirty: true}
	}
	t.rehash(t.root)
	return t.root.hash
}

// rehash recomputes n's hash if dirty, recursing only into dirty
// children (clean subtrees contribute their cached hashes).
//
// The preimage is a fixed-shape encoding — marker byte, length-prefixed
// node prefix, value flag (+hash), child count, then (edge byte, child
// hash) pairs in ascending edge order — so distinct tries can never
// collide by concatenation ambiguity. Dirty children are rehashed
// first, so the one buffer the trie owns holds a single node's preimage
// at a time and is hashed in one call.
func (t *Trie) rehash(n *node) {
	if !n.dirty {
		return
	}
	var br branch
	if n.br != nil {
		br = *n.br
	}
	for _, c := range br.kids {
		t.rehash(c)
	}
	b := append(t.buf[:0], 0x10)
	b = binary.AppendUvarint(b, uint64(len(n.prefix)))
	b = append(b, n.prefix...)
	if n.hasVal {
		b = append(b, 1)
		b = append(b, n.val[:]...)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(br.kids)))
	for i, c := range br.kids {
		b = append(b, br.edges[i])
		b = append(b, c.hash[:]...)
	}
	n.hash = sha256.Sum256(b)
	n.dirty = false
	t.buf = b
}
