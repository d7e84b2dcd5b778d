package wire

import (
	"slices"
	"sort"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// Pager record types (internal/pager). A paged state directory holds
// versioned page files — each a single frame — plus one index frame
// naming the page versions that together form the committed state.
// Reusing the frame format gives page files the same CRC and bounds
// checking as every other on-disk record: a torn page write or a
// flipped bit is rejected at the frame layer, and recovery falls back
// to refusing the index rather than faulting wrong state.
const (
	// MsgAccountPage is one account page file: a fixed partition of the
	// address space holding every existing account whose address hashes
	// into it.
	MsgAccountPage MsgType = 15
	// MsgContractPage is one contract's canonical field state, written
	// when the pager evicts or flushes it.
	MsgContractPage MsgType = 16
	// MsgPageIndex is the atomically-replaced index of a paged state
	// directory: the checkpoint and root the pages reconstruct, the
	// page-table geometry, and the committed version of every page.
	MsgPageIndex MsgType = 17
)

// AccountPage is one page of the partitioned account table. Accounts
// are encoded in sorted address order, so pages of the same state are
// byte-identical regardless of cache history.
type AccountPage struct {
	PageID   uint32
	Version  uint64
	Accounts []SnapshotAccount
}

// EncodeAccountPage encodes an account page, sorting rows by address.
func EncodeAccountPage(p *AccountPage) []byte {
	rows := p.Accounts
	byAddr := func(a, b SnapshotAccount) int { return addrCmp(a.Addr, b.Addr) }
	if !slices.IsSortedFunc(rows, byAddr) {
		rows = slices.Clone(rows)
		slices.SortFunc(rows, byAddr)
	}
	b := make([]byte, 0, 32+32*len(rows))
	b = appendUvarint(b, uint64(p.PageID))
	b = appendUvarint(b, p.Version)
	return append(b, EncodeSnapshotAccounts(rows)...)
}

// DecodeAccountPage decodes an account page payload.
func DecodeAccountPage(b []byte) (*AccountPage, error) {
	r := &reader{b: b}
	pid, ver := r.uvarint(), r.uvarint()
	if pid > 1<<31 {
		r.fail("account page id %d out of range", pid)
	}
	return finish(r, &AccountPage{PageID: uint32(pid), Version: ver, Accounts: r.snapshotAccounts()})
}

// ContractPage is one contract's canonical state as the pager writes
// it: the snapshot-contract field encoding plus the page version the
// index references.
type ContractPage struct {
	Addr    chain.Address
	Version uint64
	Fields  map[string]value.Value
}

// EncodeContractPage encodes a contract page.
func EncodeContractPage(p *ContractPage) ([]byte, error) {
	b := appendUvarint(make([]byte, 0, 256), p.Version)
	sc, err := EncodeSnapshotContract(&SnapshotContract{Addr: p.Addr, Fields: p.Fields})
	if err != nil {
		return nil, err
	}
	return append(b, sc...), nil
}

// DecodeContractPage decodes a contract page payload.
func DecodeContractPage(b []byte) (*ContractPage, error) {
	r := &reader{b: b}
	ver, sc := r.uvarint(), r.snapshotContract()
	return finish(r, &ContractPage{Addr: sc.Addr, Version: ver, Fields: sc.Fields})
}

// PageIndexAccounts is one account page's entry in the index.
type PageIndexAccounts struct {
	PageID  uint32
	Version uint64
	Count   uint64
}

// PageIndexContract is one contract page's entry in the index.
type PageIndexContract struct {
	Addr    chain.Address
	Version uint64
}

// PageIndex is the committed root of a paged state directory. It is
// written to a temp file, fsynced, and renamed into place, so the set
// of page versions it names is replaced atomically: page files written
// after the index (dirty evictions mid-epoch-window) are invisible
// orphans until the next index commit, and a crash between page writes
// and the index rename recovers to the previous index's state.
type PageIndex struct {
	Checkpoint  shard.Checkpoint
	Root        string
	PageCount   uint32 // account page-table size (power of two)
	NextVersion uint64 // next unused page-file version
	Accounts    []PageIndexAccounts
	Contracts   []PageIndexContract
}

// EncodePageIndex encodes an index, sorting entries (by page id and
// address) so indexes of the same state are byte-identical.
func EncodePageIndex(ix *PageIndex) []byte {
	accs := append([]PageIndexAccounts(nil), ix.Accounts...)
	sort.Slice(accs, func(i, j int) bool { return accs[i].PageID < accs[j].PageID })
	contracts := append([]PageIndexContract(nil), ix.Contracts...)
	slices.SortFunc(contracts, func(a, b PageIndexContract) int { return addrCmp(a.Addr, b.Addr) })

	b := AppendCheckpoint(make([]byte, 0, 64+16*len(accs)+32*len(contracts)), ix.Checkpoint)
	b = appendString(b, ix.Root)
	b = appendUvarint(b, uint64(ix.PageCount))
	b = appendUvarint(b, ix.NextVersion)
	b = appendUvarint(b, uint64(len(accs)))
	for i := range accs {
		b = appendUvarint(b, uint64(accs[i].PageID))
		b = appendUvarint(b, accs[i].Version)
		b = appendUvarint(b, accs[i].Count)
	}
	b = appendUvarint(b, uint64(len(contracts)))
	for i := range contracts {
		b = appendAddr(b, contracts[i].Addr)
		b = appendUvarint(b, contracts[i].Version)
	}
	return b
}

// DecodePageIndex decodes an index payload.
func DecodePageIndex(b []byte) (*PageIndex, error) {
	r := &reader{b: b}
	ix := &PageIndex{Checkpoint: r.checkpoint(), Root: r.string()}
	pc := r.uvarint()
	ix.NextVersion = r.uvarint()
	if r.err == nil && (pc == 0 || pc > 1<<31 || pc&(pc-1) != 0) {
		r.fail("page count %d not a positive power of two", pc)
	}
	ix.PageCount = uint32(pc)
	var n int
	n, ix.Accounts = items[PageIndexAccounts](r, 3, true)
	for ; n > 0 && r.err == nil; n-- {
		pid, ver, count := r.uvarint(), r.uvarint(), r.uvarint()
		if r.err == nil && pid >= uint64(ix.PageCount) {
			r.fail("page id %d outside page table of %d", pid, ix.PageCount)
		}
		ix.Accounts = append(ix.Accounts, PageIndexAccounts{PageID: uint32(pid), Version: ver, Count: count})
	}
	n, ix.Contracts = items[PageIndexContract](r, 21, true)
	for ; n > 0 && r.err == nil; n-- {
		ix.Contracts = append(ix.Contracts, PageIndexContract{Addr: r.addr(), Version: r.uvarint()})
	}
	return finish(r, ix)
}
