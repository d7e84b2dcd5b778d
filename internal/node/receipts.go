package node

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"cosplit/internal/chain"
	"cosplit/internal/wire"
)

// DefaultReceiptCap is how many receipts a lookup keeps unless a test
// sets another capacity.
const DefaultReceiptCap = 100_000

// ReceiptLog keeps the most recent receipts by transaction id, at most
// its capacity, evicting the longest-filed first. It is what a lookup
// answers "what happened to transaction id?" from: it files the
// receipts of the FinalBlocks it hears. It is the one place receipts
// are kept; the committee and the shard replicas keep none.
//
// The log keeps each block's receipts in one allocation of their own,
// coded in runs: File walks the block's receipt section in order, 64
// receipts a run, keeps each run's first receipt (its head) whole and
// every other as its delta against the head — the stretches where the
// two differ — or whole when it is not the head's length or its delta
// would be no shorter. Receipts of one transition differ mostly in
// their ids and parameters, so a token transfer's 113 bytes keep ~50.
// Behind the coded receipts lie a table of the run heads' offsets and
// an index: the receipts' ids in ascending order, each with its coded
// receipt's offset, 12 bytes a receipt. Receipt finds the newest block
// holding an id, rebuilds that one receipt from its run's head into a
// buffer of its own and decodes it (wire.ReadReceipt). Once File
// returns, nothing in the log points into a frame or a FinalBlock, so a
// block is garbage as soon as its handler is done with it. A receipt
// evicted from the log is gone.
//
// An id filed again answers with its newest content and is counted
// once: its older entry is marked shadowed, and a block whose every
// entry is shadowed gives up its bytes at once. Eviction walks the
// oldest block's receipts in section order, passing shadowed entries;
// the block goes when its last live receipt does. A shadowed or
// evicted head stays in its block's bytes, and serves the rest of its
// run, until then.
//
// Not synchronised: its owner's lock covers it.
type ReceiptLog struct {
	// blocks are the filed blocks, oldest first.
	blocks []filedBlock
	// evict lists the oldest block's entries in section order, once
	// eviction has reached that block; next is how many of them it has
	// passed, and the block's receipts below offset cut are evicted.
	evict []uint64
	next  int
	cut   uint32
	// count is the receipts on file; bytes is what the blocks' data
	// occupies.
	count, limit int
	bytes        int
	// scratch is where File codes a block before copying it out.
	scratch []byte
}

// filedBlock is one block's receipts: data is the coded receipts in
// section order (each run's head whole, the others as deltas against
// it or whole; see appendEntry), then each run head's offset among them
// (4 bytes each, little-endian), then n ids (8 bytes each, ascending;
// of equal ids the one answering last), then each id's coded receipt's
// offset (4 bytes each, the shadowed bit set on an entry a newer one
// answers for). Coded offsets ascend in section order, as the
// section's did.
type filedBlock struct {
	data    []byte
	n, live uint32
	// floor is the least id this block or a newer one holds, ceil the
	// greatest this block or an older one held: the blocks that may hold
	// an id are a run that two binary searches find.
	floor, ceil uint64
}

// shadowed marks an offset whose entry a newer entry answers for. A
// block's coded receipts are shorter than it, so no offset has the bit
// of its own.
const shadowed = 1 << 31

// runLen is how many receipts, in section order, are coded against one
// run head: a read rebuilds its receipt from one head, and a block
// keeps one head offset per runLen receipts.
const runLen = 64

// errUnfileable refuses a block the log cannot hold as it is laid out.
var errUnfileable = errors.New("receipt log: unfileable block")

// NewReceiptLog returns an empty log keeping at most limit receipts
// (DefaultReceiptCap when limit <= 0).
func NewReceiptLog(limit int) *ReceiptLog {
	if limit <= 0 {
		limit = DefaultReceiptCap
	}
	return &ReceiptLog{limit: limit}
}

// File adds a block's receipts: its receipt section and where each
// receipt lies in it, in block order (wire.DecodeReceiptSection). recs
// is the caller's scratch, which File rewrites, sorts by id and marks.
// A receipt whose id is already on file (a re-delivered block) replaces
// the filed one and takes its place at the young end of the eviction
// order. The log keeps no reference to section or recs. It refuses the
// whole block, filing none of it, when the ranges do not start the
// section, ascend and end inside it, or the block does not fit 31-bit
// offsets (a frame's payload is far smaller).
func (l *ReceiptLog) File(section []byte, recs []wire.ReceiptRange) error {
	if len(section) >= shadowed || (len(recs) == 0) != (len(section) == 0) {
		return fmt.Errorf("%w: %d receipts in %d bytes", errUnfileable, len(recs), len(section))
	}
	for i, r := range recs {
		if (i == 0) != (r.Off == 0) || (i > 0 && r.Off <= recs[i-1].Off) || r.Off >= len(section) {
			return fmt.Errorf("%w: receipt %d at %d of a %d-byte section", errUnfileable, r.ID, r.Off, len(section))
		}
	}
	if len(recs) == 0 {
		return nil
	}
	// Code the receipts in section order, each range's offset becoming
	// its coded receipt's.
	n, heads := len(recs), (len(recs)+runLen-1)/runLen
	coded := l.scratch[:0]
	var head []byte
	for i := range recs {
		end := len(section)
		if i+1 < n {
			end = recs[i+1].Off
		}
		cur := section[recs[i].Off:end]
		recs[i].Off = len(coded)
		if i%runLen == 0 {
			head, coded = cur, appendWhole(coded, cur)
		} else {
			coded = appendEntry(coded, head, cur)
		}
	}
	l.scratch = coded
	if len(coded) >= shadowed {
		return fmt.Errorf("%w: %d receipts in %d coded bytes", errUnfileable, n, len(coded))
	}
	b := filedBlock{data: make([]byte, len(coded)+4*heads+12*n), n: uint32(n)}
	copy(b.data, coded)
	for r := range heads {
		binary.LittleEndian.PutUint32(b.data[len(coded)+4*r:], uint32(recs[r*runLen].Off))
	}

	slices.SortFunc(recs, func(a, b wire.ReceiptRange) int {
		return cmp.Compare(a.ID, b.ID)
	})
	b.floor, b.ceil = recs[0].ID, recs[n-1].ID
	ids, offs := b.data[len(b.data)-12*n:], b.data[len(b.data)-4*n:]
	fresh := 0
	for k := range recs {
		if k+1 < n && recs[k+1].ID == recs[k].ID {
			// An id twice in one block: the later receipt answers for
			// it, and is carried to the end of the id's entries.
			if recs[k+1].Off < recs[k].Off {
				recs[k], recs[k+1] = recs[k+1], recs[k]
			}
			recs[k].Off |= shadowed
		} else if b.live++; !l.shadow(recs[k].ID) {
			fresh++
		}
		binary.LittleEndian.PutUint64(ids[8*k:], recs[k].ID)
		binary.LittleEndian.PutUint32(offs[4*k:], uint32(recs[k].Off))
	}
	if last := len(l.blocks) - 1; last >= 0 {
		b.ceil = max(b.ceil, l.blocks[last].ceil)
		for j := last; j >= 0 && l.blocks[j].floor > b.floor; j-- {
			l.blocks[j].floor = b.floor
		}
	}
	l.blocks = append(l.blocks, b)
	l.bytes += len(b.data)
	l.count += fresh
	for l.count > l.limit {
		l.evictOne()
	}
	return nil
}

// shadow marks the entry answering for id, if one is on file, as
// answered for by a newer one, and reports whether there was one.
func (l *ReceiptLog) shadow(id uint64) bool {
	j, k, ok := l.find(id)
	if !ok {
		return false
	}
	b := &l.blocks[j]
	b.setOff(k, b.off(k)|shadowed)
	if b.live--; b.live == 0 {
		l.drop(j)
	}
	return true
}

// evictOne evicts the oldest receipt on file: the oldest block's next
// live entry in section order.
func (l *ReceiptLog) evictOne() {
	for {
		b := &l.blocks[0]
		if b.live == 0 {
			l.drop(0)
			continue
		}
		if len(l.evict) == 0 {
			// Each entry's offset above its index: sorted, section order.
			for k := range b.n {
				l.evict = append(l.evict, uint64(b.off(int(k))&^shadowed)<<32|uint64(k))
			}
			slices.Sort(l.evict)
		}
		k := int(uint32(l.evict[l.next]))
		l.next++
		if b.off(k)&shadowed != 0 {
			continue
		}
		l.count--
		if b.live--; b.live == 0 {
			l.drop(0)
		} else {
			l.cut = uint32(l.evict[l.next] >> 32)
		}
		return
	}
}

// drop gives up block j's bytes once none of its entries answers for an
// id: the oldest block leaves the log, a newer one stays, empty, for
// the bounds it carries until it is the oldest.
func (l *ReceiptLog) drop(j int) {
	l.bytes -= len(l.blocks[j].data)
	if j > 0 {
		l.blocks[j].data, l.blocks[j].n = nil, 0
		return
	}
	l.blocks[0] = filedBlock{}
	l.blocks = l.blocks[1:]
	l.evict, l.next, l.cut = l.evict[:0], 0, 0
}

// find returns the block and entry answering for id, if any is on file.
func (l *ReceiptLog) find(id uint64) (j, k int, ok bool) {
	bs := l.blocks
	if len(bs) == 0 || id > bs[len(bs)-1].ceil {
		return 0, 0, false
	}
	from := sort.Search(len(bs), func(i int) bool { return bs[i].ceil >= id })
	to := sort.Search(len(bs), func(i int) bool { return bs[i].floor > id })
	for j = to - 1; j >= from; j-- {
		if k, ok = bs[j].entry(id); ok {
			break
		}
	}
	if !ok || (j == 0 && bs[0].off(k) < l.cut) {
		return 0, 0, false
	}
	return j, k, true
}

// entry returns the block's last entry for id. Only a newer block can
// shadow it, so in the newest block holding id it answers for id.
func (b *filedBlock) entry(id uint64) (int, bool) {
	k := sort.Search(int(b.n), func(i int) bool { return b.id(i) > id }) - 1
	return k, k >= 0 && b.id(k) == id
}

func (b *filedBlock) id(k int) uint64 {
	return binary.LittleEndian.Uint64(b.data[len(b.data)-12*int(b.n)+8*k:])
}

func (b *filedBlock) off(k int) uint32 {
	return binary.LittleEndian.Uint32(b.data[len(b.data)-4*int(b.n)+4*k:])
}

func (b *filedBlock) setOff(k int, off uint32) {
	binary.LittleEndian.PutUint32(b.data[len(b.data)-4*int(b.n)+4*k:], off)
}

// receipt rebuilds entry k's receipt into a buffer of its own.
func (b *filedBlock) receipt(k int) []byte {
	n, heads := int(b.n), (int(b.n)+runLen-1)/runLen
	end := len(b.data) - 12*n - 4*heads
	coded, table := b.data[:end], b.data[end:end+4*heads]
	off := int(b.off(k) &^ shadowed)
	// The run's head is the last at or before the entry.
	r := sort.Search(heads, func(r int) bool { return int(binary.LittleEndian.Uint32(table[4*r:])) > off }) - 1
	head, _ := wholeAt(coded[binary.LittleEndian.Uint32(table[4*r:]):])
	rec, _ := readEntry(coded[off:], head)
	return rec
}

// Receipt returns the filed receipt for a transaction id, or nil if
// there is none or it has been evicted. It is rebuilt and decoded
// afresh on every call, and owns its bytes: RawEvents is a range of a
// buffer of its own, which the caller may modify without the log
// noticing.
func (l *ReceiptLog) Receipt(id uint64) *chain.Receipt {
	j, k, ok := l.find(id)
	if !ok {
		return nil
	}
	// The section was checked byte for byte before it was filed.
	rec, err := wire.ReadReceipt(l.blocks[j].receipt(k))
	if err != nil {
		panic(fmt.Sprintf("receipt log: filed receipt %d does not decode: %v", id, err))
	}
	return rec
}

// Len returns the number of receipts on file.
func (l *ReceiptLog) Len() int { return l.count }

// Bytes returns what the log occupies: its blocks' coded receipts and
// indexes, their records, the eviction cursor's list and the coding
// scratch.
func (l *ReceiptLog) Bytes() int {
	return l.bytes + cap(l.blocks)*int(unsafe.Sizeof(filedBlock{})) + 8*cap(l.evict) + cap(l.scratch)
}

// A coded receipt is whole or a delta, told apart by its first uvarint
// x. Whole, x is twice its length and its bytes follow. A delta holds a
// receipt of its head's length as alternating runs: the bytes equal to
// the head's (a uvarint count), then the bytes that differ (a uvarint
// count and the bytes), and so on to the end; x is twice the first
// equal run plus one. A stretch of fewer than minEqual equal bytes
// between differing ones stays in the differing run: two counts would
// cost as much as the bytes.
const minEqual = 3

// appendWhole appends cur whole.
func appendWhole(dst, cur []byte) []byte {
	return append(binary.AppendUvarint(dst, 2*uint64(len(cur))), cur...)
}

// appendEntry appends cur as its delta against head, or whole when it
// is not head's length or its delta would be no shorter.
func appendEntry(dst, head, cur []byte) []byte {
	if len(cur) != len(head) {
		return appendWhole(dst, cur)
	}
	start := len(dst)
	limit := start + wholeLen(len(cur))
	i := equalRun(head, cur, 0)
	dst = binary.AppendUvarint(dst, 2*uint64(i)+1)
	for i < len(cur) && len(dst) < limit {
		j := i + 1
		for j < len(cur) {
			if cur[j] != head[j] {
				j++
			} else if e := equalRun(head, cur, j); e-j < minEqual && e < len(cur) {
				j = e
			} else {
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, cur[i:j]...)
		if j == len(cur) {
			break
		}
		i = equalRun(head, cur, j)
		dst = binary.AppendUvarint(dst, uint64(i-j))
	}
	if len(dst) >= limit {
		return appendWhole(dst[:start], cur)
	}
	return dst
}

// wholeLen is how many bytes a receipt of n bytes takes whole.
func wholeLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], 2*uint64(n)) + n
}

// equalRun returns where the run of bytes of cur equal to head's that
// starts at i ends.
func equalRun(head, cur []byte, i int) int {
	for ; i+8 <= len(cur); i += 8 {
		if x := binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(head[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(cur) && cur[i] == head[i] {
		i++
	}
	return i
}

// wholeAt returns the bytes of the whole receipt coded at the start of
// coded, a range of it, and the coded length.
func wholeAt(coded []byte) ([]byte, int) {
	x, w := binary.Uvarint(coded)
	end := w + int(x/2)
	return coded[w:end:end], end
}

// readEntry rebuilds the receipt coded at the start of coded against
// head into a buffer of its own, and returns it with its coded length.
func readEntry(coded, head []byte) ([]byte, int) {
	x, w := binary.Uvarint(coded)
	if x&1 == 0 {
		rec, n := wholeAt(coded)
		return bytes.Clone(rec), n
	}
	rec := make([]byte, len(head))
	i, at := copy(rec, head[:x/2]), w
	for i < len(rec) {
		d, w := binary.Uvarint(coded[at:])
		at += w
		i += copy(rec[i:i+int(d)], coded[at:])
		at += int(d)
		if i == len(rec) {
			break
		}
		e, w := binary.Uvarint(coded[at:])
		at += w
		i += copy(rec[i:i+int(e)], head[i:])
	}
	return rec, at
}
