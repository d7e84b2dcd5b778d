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
// A node's hash is kept where its parent reads it: in the parent's
// child run, beside the child's slot number and edge byte (the root's
// by the Trie). Hashes are recomputed lazily: a mutation flags the
// slots on the touched path stale, and Root descends only into flagged
// children, rebuilding each such node's preimage from its run's
// contiguous edge and hash arrays; the record of a child it does not
// rehash is never read. An epoch that changes k entries therefore
// rehashes O(k · depth) nodes, not the whole state; each of those nodes
// hashes one preimage that lists all of its children, so a node's cost
// grows with its fan-out (at most 256 × 33 bytes). Where a hash is
// stored does not enter the preimage, so the roots are those of a trie
// that cached each hash in its node.
//
// Storage holds no Go pointer below a few page directories, so the
// collector never walks it, and a page is never copied. Node records
// (48 bytes, leaf hash inline) live in fixed-size pages and are
// addressed by uint32 slot. A node's children are a run of slots, each
// a child slot number (its top bit the stale flag), an edge byte and
// the child's hash, in parallel arrays of a run page. A run's capacity
// is the smallest power of two that holds the children, and runs are
// kept as buddies: a released run merges with its free other half into
// one twice its size, and a run of a size with none free is split off
// a larger free one before a new page is taken, so the runs a growing
// node leaves behind serve the nodes that come after it. A node's
// prefix is a range of a byte page. Freed slots go on a free list and
// are reused; prefix bytes no node refers to any more are reclaimed by
// compacting the byte pages once they outnumber the live ones.
//
// A whole state is built in one pass instead (Load): from sorted keys
// each node is laid out depth first, allocated once at its final size
// and hashed as soon as its children are, into the trie Put would have
// built.
package trie

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"
)

// Page sizes are exact allocation size classes, and small enough that
// a trie of a few hundred keys holds about what it uses.
const (
	pageShift = 8
	pageLen   = 1 << pageShift // node records per page: 12 KiB
	pageMask  = pageLen - 1

	runShift   = 8
	runPageLen = 1 << runShift // child slots per run page: 9.25 KiB
	runMask    = runPageLen - 1
	// runClasses is the number of run capacities, 1 to 256.
	runClasses = 9

	keyShift   = 14
	keyPageLen = 1 << keyShift // prefix bytes per byte page: 16 KiB
	keyMask    = keyPageLen - 1
)

// stale is the top bit of a child slot number in a run: the hash beside
// it is out of date, and the child's subtree may hold more stale slots.
const stale = 1 << 31

// Trie maps byte-string keys to 32-byte leaf hashes. The zero value is
// an empty trie ready for use. Not safe for concurrent use.
type Trie struct {
	// pages hold the node records; slot 0 is the root. slots counts the
	// slots handed out, free heads the list of released ones (linked
	// through node.run; 0 ends it, as the root is never released).
	pages []*[pageLen]node
	slots uint32
	free  uint32

	// runs hold the child runs. A run starts at a multiple of its
	// capacity, so none crosses a page, and every slot of every page is
	// in a run in use or a free one. runFree[c] is 1 + the first free run
	// of capacity 1<<c (0: none), the others linked from it (links).
	runs    []*runPage
	runFree [runClasses]uint32

	// keys hold the prefix bytes, keyPageLen to a page (a longer prefix
	// gets a page of its own); no prefix crosses a page. keyEnd is the
	// used length of the last page, keyUsed the bytes handed out so far
	// and dead those of them no node refers to (page tails included).
	keys    [][]byte
	keyEnd  int
	keyUsed int
	dead    int

	count int
	// hash is the root's hash, current when hashed is set.
	hash   [32]byte
	hashed bool
	// buf is the preimage buffer rehash reuses for every stale node.
	buf []byte
}

// node is one trie node. Its prefix is the plen bytes at key offset pre
// (page pre>>keyShift), its children the first nkids slots of run run.
// Until rehash first fills the run's hashes (runHashed), every child is
// stale, so run moves and shifts leave the hash column alone: a load
// key by key copies no hash.
type node struct {
	val               [32]byte
	pre, plen, run    uint32
	nkids             uint16
	hasVal, runHashed bool
}

// runPage holds child runs: a child's slot number (and stale flag), its
// edge byte and its hash share an index.
type runPage struct {
	kids   [runPageLen]uint32
	edges  [runPageLen]byte
	hashes [runPageLen][32]byte
}

// at returns slot i's record, valid until the slot is released.
func (t *Trie) at(i uint32) *node { return &t.pages[i>>pageShift][i&pageMask] }

// root returns the root record, creating it on first use.
func (t *Trie) root() *node {
	if t.slots == 0 {
		_, r := t.newNode()
		return r
	}
	return t.at(0)
}

func (t *Trie) prefix(n *node) []byte {
	if n.plen == 0 {
		return nil
	}
	return t.keys[n.pre>>keyShift][n.pre&keyMask:][:n.plen]
}

// kidsOf returns n's child slot numbers, stale flags included.
func (t *Trie) kidsOf(n *node) []uint32 {
	if n.nkids == 0 {
		return nil
	}
	return t.runs[n.run>>runShift].kids[n.run&runMask:][:n.nkids]
}

func (t *Trie) edgesOf(n *node) []byte {
	if n.nkids == 0 {
		return nil
	}
	return t.runs[n.run>>runShift].edges[n.run&runMask:][:n.nkids]
}

func (t *Trie) hashesOf(n *node) [][32]byte {
	if n.nkids == 0 {
		return nil
	}
	return t.runs[n.run>>runShift].hashes[n.run&runMask:][:n.nkids]
}

// newNode hands out a zeroed slot, a released one first.
func (t *Trie) newNode() (uint32, *node) {
	i := t.free
	if i != 0 {
		t.free = t.at(i).run
	} else {
		i = t.slots
		if i == freeMark&^stale {
			panic("trie: out of node slots")
		}
		if int(i>>pageShift) == len(t.pages) {
			t.pages = append(t.pages, new([pageLen]node))
		}
		t.slots++
	}
	n := t.at(i)
	*n = node{}
	return i, n
}

// freeNode releases slot i with its run and prefix bytes.
func (t *Trie) freeNode(i uint32) {
	n := t.at(i)
	t.dead += int(n.plen)
	if n.nkids > 0 {
		t.freeRun(n.run, runClass(int(n.nkids)))
	}
	*n = node{run: t.free}
	t.free = i
}

// runClass is the capacity class of a run holding k ≥ 1 children.
func runClass(k int) int { return bits.Len(uint(k - 1)) }

// allocRun hands out a run for k children: a released one of its
// capacity, else the lower half of the smallest larger released run,
// whose upper halves are released in turn. A new page is one released
// run of the largest capacity.
func (t *Trie) allocRun(k int) uint32 {
	c := runClass(k)
	d := c
	for d < runClasses && t.runFree[d] == 0 {
		d++
	}
	if d == runClasses {
		d--
		t.runs = append(t.runs, new(runPage))
		t.pushRun(uint32(len(t.runs)-1)<<runShift, d)
	}
	r := t.runFree[d] - 1
	t.unlinkRun(r, d)
	for d > c {
		d--
		t.pushRun(r+1<<d, d)
	}
	return r
}

// freeRun releases run r of class c, merged with its buddy (the other
// half of the aligned run twice its size, on the same page) while that
// is free and whole, so the small runs a growing node leaves behind add
// up to large ones again.
func (t *Trie) freeRun(r uint32, c int) {
	for ; c < runClasses-1; c++ {
		b := r ^ 1<<c
		p, o := t.runs[b>>runShift], b&runMask
		if p.kids[o] != freeMark || int(p.edges[o]) != c {
			break
		}
		t.unlinkRun(b, c)
		r &^= 1 << c
	}
	t.pushRun(r, c)
}

// freeMark is the first kid of a free run. No other slot holds it: it
// is slot 1<<31 - 1 flagged stale, which newNode never hands out, and
// unlinkRun clears it from a run taken off a list or merged into a
// larger one. A free run's edge byte is its class, and the first eight
// bytes of its first hash link it into the class's free list (links).
const freeMark = ^uint32(0)

// links returns free run r's links: 1 + the next and 1 + the previous
// free run of its class, little-endian (0: none).
func (t *Trie) links(r uint32) []byte { return t.runs[r>>runShift].hashes[r&runMask][:8] }

// pushRun puts run r at the head of class c's free list.
func (t *Trie) pushRun(r uint32, c int) {
	p, o := t.runs[r>>runShift], r&runMask
	p.kids[o], p.edges[o] = freeMark, byte(c)
	h := t.runFree[c]
	l := t.links(r)
	binary.LittleEndian.PutUint32(l[0:], h)
	binary.LittleEndian.PutUint32(l[4:], 0)
	if h != 0 {
		binary.LittleEndian.PutUint32(t.links(h - 1)[4:], r+1)
	}
	t.runFree[c] = r + 1
}

// unlinkRun takes free run r off class c's free list.
func (t *Trie) unlinkRun(r uint32, c int) {
	l := t.links(r)
	next, prev := binary.LittleEndian.Uint32(l[0:]), binary.LittleEndian.Uint32(l[4:])
	if prev == 0 {
		t.runFree[c] = next
	} else {
		binary.LittleEndian.PutUint32(t.links(prev - 1)[0:], next)
	}
	if next != 0 {
		binary.LittleEndian.PutUint32(t.links(next - 1)[4:], prev)
	}
	t.runs[r>>runShift].kids[r&runMask] = 0
}

// moveRun gives n a run sized for k children holding the first k of
// its current ones, stale flags and hashes with them, and releases the
// old run (n.nkids still counts it).
func (t *Trie) moveRun(n *node, k int) {
	r := t.allocRun(k)
	p, o := t.runs[r>>runShift], r&runMask
	copy(p.kids[o:o+uint32(k)], t.kidsOf(n))
	copy(p.edges[o:o+uint32(k)], t.edgesOf(n))
	if n.runHashed {
		copy(p.hashes[o:o+uint32(k)], t.hashesOf(n))
	}
	if n.nkids > 0 {
		t.freeRun(n.run, runClass(int(n.nkids)))
	}
	n.run = r
}

// child returns the index of the child on edge b below n and its slot,
// or -1.
func (t *Trie) child(n *node, b byte) (int, uint32) {
	i := bytes.IndexByte(t.edgesOf(n), b)
	if i < 0 {
		return -1, 0
	}
	return i, t.kidsOf(n)[i] &^ stale
}

// addChild links slot c below n on edge b, which n has no child on, at
// the position that keeps the edges ascending, and flags it stale. A
// full run moves to the next capacity.
func (t *Trie) addChild(n *node, b byte, c uint32) {
	i, _ := slices.BinarySearch(t.edgesOf(n), b)
	k := int(n.nkids)
	if k&(k-1) == 0 { // 0 or a power of two: the run is full
		t.moveRun(n, k+1)
	}
	n.nkids++
	kids, edges := t.kidsOf(n), t.edgesOf(n)
	copy(kids[i+1:], kids[i:k])
	copy(edges[i+1:], edges[i:k])
	if n.runHashed {
		hashes := t.hashesOf(n)
		copy(hashes[i+1:], hashes[i:k])
	}
	kids[i], edges[i] = c|stale, b
}

// removeChild unlinks n's child i. Children that fit half their run
// move to the smaller capacity; a node that loses its last child is a
// leaf again.
func (t *Trie) removeChild(n *node, i int) {
	kids, edges := t.kidsOf(n), t.edgesOf(n)
	copy(kids[i:], kids[i+1:])
	copy(edges[i:], edges[i+1:])
	if n.runHashed {
		hashes := t.hashesOf(n)
		copy(hashes[i:], hashes[i+1:])
	}
	k := int(n.nkids) - 1
	switch {
	case k == 0:
		t.freeRun(n.run, 0)
		n.run = 0
	case k&(k-1) == 0:
		t.moveRun(n, k)
	}
	n.nkids = uint16(k)
}

// allocKey reserves size ≥ 1 prefix bytes and returns their offset. It
// first compacts the byte pages if more of what they hold is dead than
// live, which moves every reachable node's prefix: callers re-read
// prefixes after it.
func (t *Trie) allocKey(size int) uint32 {
	if t.dead > t.keyUsed/2 {
		old := t.keys
		t.keys, t.keyEnd, t.keyUsed, t.dead = nil, 0, 0, 0
		t.moveKeys(0, old)
	}
	return t.bumpKey(size)
}

// bumpKey reserves size bytes at the end of the last byte page, or at
// the start of a new one.
func (t *Trie) bumpKey(size int) uint32 {
	last := len(t.keys) - 1
	if last >= 0 && t.keyEnd+size <= len(t.keys[last]) {
		off := last<<keyShift | t.keyEnd
		t.keyEnd += size
		t.keyUsed += size
		return uint32(off)
	}
	if last >= 0 {
		tail := len(t.keys[last]) - t.keyEnd
		t.dead += tail
		t.keyUsed += tail
	}
	// A prefix longer than a page gets one allocation listed under as
	// many consecutive page numbers as it spans, so every offset into
	// it is still page<<keyShift | offset.
	first := len(t.keys)
	page := make([]byte, max(size, keyPageLen))
	for o := 0; o < len(page); o += keyPageLen {
		t.keys = append(t.keys, page[o:])
	}
	t.keyEnd = size - (len(t.keys)-1-first)*keyPageLen
	t.keyUsed += size
	return uint32(first << keyShift)
}

// moveKeys copies the prefixes of slot i's subtree out of the old byte
// pages into new ones, depth first, and repoints each node at its copy.
func (t *Trie) moveKeys(i uint32, old [][]byte) {
	n := t.at(i)
	if n.plen > 0 {
		src := old[n.pre>>keyShift][n.pre&keyMask:][:n.plen]
		n.pre = t.bumpKey(int(n.plen))
		copy(t.prefix(n), src)
	}
	for _, c := range t.kidsOf(n) {
		t.moveKeys(c&^stale, old)
	}
}

// Len returns the number of keys present.
func (t *Trie) Len() int { return t.count }

// Bytes returns the memory the trie holds: its node, run and byte
// pages.
func (t *Trie) Bytes() int {
	b := len(t.pages)*int(unsafe.Sizeof([pageLen]node{})) + len(t.runs)*int(unsafe.Sizeof(runPage{}))
	for _, p := range t.keys {
		b += min(len(p), keyPageLen)
	}
	return b
}

// Get returns the leaf hash stored for key.
func (t *Trie) Get(key []byte) ([32]byte, bool) {
	if t.slots == 0 {
		return [32]byte{}, false
	}
	n := t.at(0)
	for len(key) > 0 {
		i, c := t.child(n, key[0])
		if i < 0 {
			return [32]byte{}, false
		}
		n = t.at(c)
		if !bytes.HasPrefix(key, t.prefix(n)) {
			return [32]byte{}, false
		}
		key = key[n.plen:]
	}
	return n.val, n.hasVal
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Put inserts or overwrites the leaf hash for key, flagging every slot
// on its path stale. The trie keeps a copy of the bytes it needs, never
// key itself.
func (t *Trie) Put(key []byte, h [32]byte) {
	n := t.root()
	t.hashed = false
	for len(key) > 0 {
		i, ci := t.child(n, key[0])
		if i < 0 {
			li, l := t.newNode()
			l.pre, l.plen = t.allocKey(len(key)), uint32(len(key))
			copy(t.prefix(l), key)
			l.val, l.hasVal = h, true
			t.addChild(n, key[0], li)
			t.count++
			return
		}
		kids := t.kidsOf(n)
		kids[i] = ci | stale
		c := t.at(ci)
		m := commonPrefix(t.prefix(c), key)
		if m < int(c.plen) {
			// The edge diverges inside c's prefix: split it. The split
			// node takes the first m prefix bytes and c keeps the rest,
			// both where they are in the arena. c keeps its subtree (its
			// run, with the hashes and flags in it) but its own hash
			// covers the now-shortened prefix, so its slot below the
			// split node is stale. The split node takes c's place on the
			// same edge byte, so n's order holds.
			si, s := t.newNode()
			s.pre, s.plen = c.pre, uint32(m)
			c.pre, c.plen = c.pre+uint32(m), c.plen-uint32(m)
			t.addChild(s, t.prefix(c)[0], ci)
			kids[i] = si | stale
			c = s
		}
		n, key = c, key[m:]
	}
	if !n.hasVal {
		t.count++
	}
	n.val, n.hasVal = h, true
}

// Delete removes key; it reports whether the key was present.
func (t *Trie) Delete(key []byte) bool {
	if t.slots == 0 {
		return false
	}
	del, _ := t.deleteAt(t.at(0), key)
	t.hashed = t.hashed && !del
	return del
}

// deleteAt removes key from n's subtree and reports (deleted,
// removeSelf); removeSelf asks the caller to unlink the node entirely.
// The root is never unlinked (the top-level caller ignores removeSelf).
func (t *Trie) deleteAt(n *node, key []byte) (deleted, removeSelf bool) {
	if len(key) == 0 {
		if !n.hasVal {
			return false, false
		}
		n.hasVal = false
		t.count--
		return true, n.nkids == 0
	}
	i, ci := t.child(n, key[0])
	if i < 0 {
		return false, false
	}
	c := t.at(ci)
	m := commonPrefix(t.prefix(c), key)
	if m != int(c.plen) {
		return false, false
	}
	del, rm := t.deleteAt(c, key[m:])
	if !del {
		return false, false
	}
	t.settle(n, i, rm)
	return true, !n.hasVal && n.nkids == 0
}

// settle restores the invariants at n's child i after a delete below
// it: the child is released if it asked to be, or else merged with its
// only child if it was left valueless with one, and its slot is stale.
func (t *Trie) settle(n *node, i int, remove bool) {
	ci := t.kidsOf(n)[i] &^ stale
	if remove {
		t.removeChild(n, i)
		t.freeNode(ci)
		return
	}
	t.collapse(t.at(ci))
	t.kidsOf(n)[i] = ci | stale
}

// DeletePrefix removes every key that starts with p (p itself
// included) and returns how many keys were removed. An empty p clears
// the trie.
func (t *Trie) DeletePrefix(p []byte) int {
	if t.slots == 0 {
		return 0
	}
	if len(p) == 0 {
		n := t.count
		*t = Trie{}
		return n
	}
	removed, _ := t.deletePrefixAt(t.at(0), p)
	t.hashed = t.hashed && removed == 0
	return removed
}

func (t *Trie) deletePrefixAt(n *node, p []byte) (removed int, removeSelf bool) {
	i, ci := t.child(n, p[0])
	if i < 0 {
		return 0, false
	}
	c := t.at(ci)
	m := commonPrefix(t.prefix(c), p)
	switch {
	case m == len(p):
		// All of p matched inside c's prefix: c's whole subtree is
		// under the prefix.
		t.removeChild(n, i)
		removed = t.freeSubtree(ci)
		t.count -= removed
	case m == int(c.plen):
		rem, rm := t.deletePrefixAt(c, p[m:])
		if rem == 0 {
			return 0, false
		}
		t.settle(n, i, rm)
		removed = rem
	default:
		return 0, false
	}
	return removed, !n.hasVal && n.nkids == 0
}

// collapse merges a valueless single-child node into its child,
// restoring the canonical-structure invariant after a delete. The
// merged node keeps c's first prefix byte, so its place among its
// siblings is unchanged, and it adopts the child's already ordered
// run as it is, hashes and stale flags included. When the child's
// prefix bytes follow c's in the arena (a split being undone) the two
// ranges simply join.
func (t *Trie) collapse(c *node) {
	if c.hasVal || c.nkids != 1 {
		return
	}
	oi := t.kidsOf(c)[0] &^ stale
	o := t.at(oi)
	if c.pre+c.plen == o.pre && c.pre>>keyShift == o.pre>>keyShift {
		c.plen += o.plen
		o.plen = 0
	} else {
		off := t.allocKey(int(c.plen + o.plen))
		merged := t.keys[off>>keyShift][off&keyMask:]
		copy(merged[copy(merged, t.prefix(c)):], t.prefix(o))
		t.dead += int(c.plen)
		c.pre, c.plen = off, c.plen+o.plen
	}
	t.freeRun(c.run, 0)
	c.val, c.hasVal = o.val, o.hasVal
	c.run, c.nkids, c.runHashed = o.run, o.nkids, o.runHashed
	o.nkids = 0
	t.freeNode(oi)
}

// freeSubtree releases slot i and everything below it and returns how
// many keys that removed.
func (t *Trie) freeSubtree(i uint32) int {
	n := t.at(i)
	sz := 0
	if n.hasVal {
		sz = 1
	}
	for _, c := range t.kidsOf(n) {
		sz += t.freeSubtree(c &^ stale)
	}
	t.freeNode(i)
	return sz
}

// Root returns the trie's root hash, recomputing only the nodes whose
// slots were flagged stale since the last call.
func (t *Trie) Root() [32]byte {
	if !t.hashed {
		t.hash = t.rehash(t.root())
		t.hashed = true
	}
	return t.hash
}

// rehash returns n's hash. It first recomputes the hashes of n's
// children flagged stale, recursing only into those, and clears their
// flags; every other child's hash is current in n's run already.
//
// The preimage is a fixed-shape encoding — marker byte, length-prefixed
// node prefix, value flag (+hash), child count, then (edge byte, child
// hash) pairs in ascending edge order — so distinct tries can never
// collide by concatenation ambiguity. Stale children are rehashed
// first, so the one buffer the trie owns holds a single node's preimage
// at a time and is hashed in one call.
func (t *Trie) rehash(n *node) [32]byte {
	kids, edges, hashes := t.kidsOf(n), t.edgesOf(n), t.hashesOf(n)
	for j, c := range kids {
		if c&stale != 0 {
			hashes[j] = t.rehash(t.at(c &^ stale))
			kids[j] = c &^ stale
		}
	}
	b := append(t.buf[:0], 0x10)
	b = binary.AppendUvarint(b, uint64(n.plen))
	b = append(b, t.prefix(n)...)
	if n.hasVal {
		b = append(b, 1)
		b = append(b, n.val[:]...)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(n.nkids))
	for j, e := range edges {
		b = append(b, e)
		b = append(b, hashes[j][:]...)
	}
	n.runHashed = true
	t.buf = b
	return sha256.Sum256(b)
}

// Leaf is one key and its leaf hash, as Load takes them.
type Leaf struct {
	Key  []byte
	Hash [32]byte
}

// Load returns the trie Put would build from leaves, key by key, in one
// depth-first pass. leaves must be in strictly ascending key order; Load
// panics otherwise. Each node, its prefix and its child run are
// allocated once, the run at the capacity its children fill, and each
// node is hashed as soon as its children are, so the trie comes back
// hashed: nothing is descended into twice, no run moves, and Root
// returns at once. The trie keeps copies of the key bytes it needs.
func Load(leaves []Leaf) *Trie {
	for i := 1; i < len(leaves); i++ {
		if bytes.Compare(leaves[i-1].Key, leaves[i].Key) >= 0 {
			panic("trie: Load keys not in strictly ascending order")
		}
	}
	t := &Trie{count: len(leaves)}
	_, root := t.newNode()
	if len(leaves) > 0 && len(leaves[0].Key) == 0 {
		root.val, root.hasVal = leaves[0].Hash, true
		leaves = leaves[1:]
	}
	t.hash, t.hashed = t.loadKids(root, leaves, 0), true
	return t
}

// loadKids gives n the children that hold leaves, which all run past
// n's path, their first d bytes, and returns n's hash. A child per
// distinct byte at d, in ascending order, as Put orders edges.
func (t *Trie) loadKids(n *node, leaves []Leaf, d int) [32]byte {
	k := 0
	for rest := leaves; len(rest) > 0; k++ {
		rest = rest[edgeRun(rest, d):]
	}
	if k > 0 {
		n.run, n.nkids = t.allocRun(k), uint16(k)
	}
	kids, edges, hashes := t.kidsOf(n), t.edgesOf(n), t.hashesOf(n)
	for j := range kids {
		g := edgeRun(leaves, d)
		edges[j] = leaves[0].Key[d]
		kids[j], hashes[j] = t.loadNode(leaves[:g], d)
		leaves = leaves[g:]
	}
	return t.rehash(n)
}

// loadNode builds the node that holds leaves, whose keys agree on their
// first d+1 bytes, and returns its slot and hash. Its prefix runs from
// d to where the first and the last key part — where, the keys being
// sorted, every two of them have parted — and the first key has a value
// here if it ends there.
func (t *Trie) loadNode(leaves []Leaf, d int) (uint32, [32]byte) {
	first := leaves[0].Key[d:]
	m := commonPrefix(first, leaves[len(leaves)-1].Key[d:])
	i, n := t.newNode()
	n.pre, n.plen = t.bumpKey(m), uint32(m)
	copy(t.prefix(n), first[:m])
	if len(first) == m {
		n.val, n.hasVal = leaves[0].Hash, true
		leaves = leaves[1:]
	}
	return i, t.loadKids(n, leaves, d+m)
}

// edgeRun returns how many of leaves, from the first, have the first's
// byte at d. The keys being sorted and agreeing before d, those are a
// run: its end is found by doubling steps, then halving them.
func edgeRun(leaves []Leaf, d int) int {
	b := leaves[0].Key[d]
	lo, hi := 1, 2 // leaves[:lo] have b; the run ends by hi
	for hi < len(leaves) && leaves[hi].Key[d] == b {
		lo, hi = hi+1, 2*hi+1
	}
	hi = min(hi, len(leaves))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); leaves[mid].Key[d] == b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
