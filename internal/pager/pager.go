// Package pager is the disk-backed, page-structured backing store
// behind chain.Accounts and contract canonical state: it inverts the
// assumption that state is a resident Go map, so a network's account
// population can exceed RAM.
//
// State is split into fixed-size partitions:
//
//   - Account pages. A page table of PageCount (power of two) pages
//     partitions the address space by address prefix — page id =
//     the top log2(PageCount) bits of the address — so bulk loads in
//     sorted address order fill one page at a time. Each page holds
//     the decoded accounts of its partition.
//   - Contract states. Each deployed contract's canonical field state
//     pages as one unit. The commit merges into it in place, entry by
//     entry, so the unit is now coarser than the work done on it:
//     sizing and writing back a touched contract is still O(its
//     state).
//
// Resident pages live in one LRU list bounded by a byte budget.
// Faults decode a page file into the cache; evictions write dirty
// pages out (versioned files) and drop clean ones. Eviction never
// invalidates a pointer handed out earlier: readers keep their
// reference, the pager merely stops counting it ("pin by reference").
// The incremental root trie (internal/trie) stays the sole root
// authority and is never paged — eviction cannot change roots because
// a faulted page decodes to exactly the bytes the eviction wrote.
//
// Durability follows the store's fsync points. Page files written
// mid-window (dirty evictions) are invisible orphans until Flush
// writes the index: Flush writes out every remaining dirty page,
// fsyncs all files written since the last flush, then atomically
// replaces pages.idx (temp + fsync + rename + directory fsync). A
// crash at any point recovers to the previous index's state — the
// journal tail above it replays through the ordinary replay path.
package pager

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// indexName is the atomically-replaced page index inside a paged dir.
const indexName = "pages.idx"

// DefaultBudget is the default page-cache byte budget (128 MB — the
// tentpole's target for the million-account state).
const DefaultBudget = 128 << 20

// DefaultPageCount is the default account page-table size.
const DefaultPageCount = 4096

// ErrCorruptIndex reports a page index or page file recovery cannot
// use: truncated, version mismatch, or referencing missing pages.
var ErrCorruptIndex = errors.New("pager: corrupt page index")

// unitKind discriminates the two page flavours in the LRU.
type unitKind uint8

const (
	kindAccounts unitKind = iota
	kindContract
)

// unit is one cached page: either an account partition or a contract
// state. Units form the intrusive LRU list; account units exist only
// while resident, contract units persist for the contract's lifetime
// (tracking its on-disk version) and join the LRU while resident.
type unit struct {
	prev, next *unit
	kind       unitKind

	pid uint32                           // kindAccounts
	m   map[chain.Address]*chain.Account // kindAccounts, resident map

	c *chain.Contract // kindContract

	bytes int64  // estimated resident footprint
	dirty bool   // resident content newer than disk
	ver   uint64 // on-disk version; 0 = no disk copy
}

// diskPage records an account page's committed on-disk copy.
type diskPage struct {
	ver   uint64
	count uint64
}

// Pager owns a paged state directory: the page files, the index, the
// LRU cache, and the version counter. One Pager serves one network;
// every method is safe for concurrent use (calls arrive concurrently
// from readers holding the account table's read lock).
type Pager struct {
	mu  sync.Mutex
	dir string

	budget    int64
	pageCount uint32
	shift     uint // 32 - log2(pageCount)

	nextVer  uint64
	accPages map[uint32]*unit    // resident account pages
	diskAcc  map[uint32]diskPage // committed on-disk account pages
	accCount int64

	contracts map[chain.Address]*unit // all admitted contracts

	head, tail *unit // LRU: head = most recent
	resident   int64

	cp        shard.Checkpoint
	root      string
	haveIndex bool

	unsynced []string // page files written since the last flush
	garbage  []string // superseded files, deleted after the next index commit

	backend *accountBackend

	hits, faults, evictions, writebacks *obs.Counter
	residentBytes, residentUnits        *obs.Gauge
	faultTime                           *obs.Histogram
}

// Option configures a Pager at Open time.
type Option func(*Pager)

// WithBudget sets the page-cache byte budget. The cache may exceed it
// transiently by one page (the page being faulted is never its own
// eviction victim). Values <= 0 fall back to DefaultBudget.
func WithBudget(n int64) Option {
	return func(p *Pager) {
		if n > 0 {
			p.budget = n
		}
	}
}

// WithPageCount sets the account page-table size; rounded up to a
// power of two. An existing directory's index overrides it — the
// geometry is fixed when the first index is written.
func WithPageCount(n int) Option {
	return func(p *Pager) {
		if n > 0 {
			p.pageCount = ceilPow2(uint32(n))
		}
	}
}

// WithRegistry counts the pager's metrics (hits, faults, evictions,
// write-backs, resident bytes/pages, fault latency) in reg instead of
// a private registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(p *Pager) { p.metrics(reg) }
}

func (p *Pager) metrics(reg *obs.Registry) {
	p.hits = reg.Counter("pager.hits")
	p.faults = reg.Counter("pager.faults")
	p.evictions = reg.Counter("pager.evictions")
	p.writebacks = reg.Counter("pager.writebacks")
	p.residentBytes = reg.Gauge("pager.resident_bytes")
	p.residentUnits = reg.Gauge("pager.resident_units")
	p.faultTime = reg.TimeHistogram("pager.fault_time")
}

// Open opens (creating if needed) a paged state directory. If an index
// exists its geometry, checkpoint, and page table are loaded — the
// committed state stays on disk until faulted — and files no index
// references (orphans of a crashed window) are swept.
func Open(dir string, opts ...Option) (*Pager, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	p := &Pager{
		dir:       dir,
		budget:    DefaultBudget,
		pageCount: DefaultPageCount,
		nextVer:   1,
		accPages:  make(map[uint32]*unit),
		diskAcc:   make(map[uint32]diskPage),
		contracts: make(map[chain.Address]*unit),
	}
	p.backend = &accountBackend{p: p}
	p.metrics(obs.NewRegistry())
	for _, o := range opts {
		o(p)
	}
	if err := p.loadIndex(); err != nil {
		return nil, err
	}
	p.shift = shiftFor(p.pageCount)
	if err := p.sweepOrphans(); err != nil {
		return nil, err
	}
	return p, nil
}

// Checkpoint returns the committed index's checkpoint and root, and
// whether an index exists at all.
func (p *Pager) Checkpoint() (shard.Checkpoint, string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cp, p.root, p.haveIndex
}

// AccountCount returns the total number of accounts (resident or not).
func (p *Pager) AccountCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accCount
}

// ResidentBytes returns the cache's current estimated footprint.
func (p *Pager) ResidentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// Backend returns the pager's chain.AccountBackend, for wiring a
// network's account table onto the pager from birth
// (chain.NewAccountsOn) so a huge genesis population pages to disk as
// it is provisioned instead of materialising first.
func (p *Pager) Backend() chain.AccountBackend { return p.backend }

// Adopt swaps a network's account table onto this pager and puts its
// contracts' canonical state under pager management. Existing accounts
// migrate in sorted address order (pages fill sequentially, so a
// genesis population streams to disk instead of thrashing) and
// everything is marked dirty — nothing is durable until the first
// Flush. Idempotent: a table already on this pager's backend (or a
// registry already attached) is left alone, so wiring at NewNetwork
// time and adopting again at recovery compose. Recovery follows with
// ResetToDisk when a committed index exists.
func (p *Pager) Adopt(accounts *chain.Accounts, contracts *chain.Contracts) {
	accounts.SetBackend(p.backend)
	contracts.AttachPager(p)
}

// ResetToDisk discards every unflushed write and adopts the committed
// index as the sole truth: resident account pages are dropped (the
// indexed versions fault back on demand), contract states covered by
// the index are evicted without write-back, and the version counter
// resumes past the index's. Recovery calls it after Adopt so the
// re-run genesis population is replaced by the committed on-disk
// state. Without an index it is a no-op — the genesis population
// stands, exactly as a first run.
func (p *Pager) ResetToDisk() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.haveIndex {
		return nil
	}
	ix, err := p.readIndex()
	if err != nil {
		return err
	}
	// Drop all resident account pages without write-back.
	for pid, u := range p.accPages {
		p.lruRemove(u)
		p.resident -= u.bytes
		delete(p.accPages, pid)
	}
	p.diskAcc = make(map[uint32]diskPage, len(ix.Accounts))
	p.accCount = 0
	for _, e := range ix.Accounts {
		p.diskAcc[e.PageID] = diskPage{ver: e.Version, count: e.Count}
		p.accCount += int64(e.Count)
	}
	// Contracts named by the index drop their re-run genesis state and
	// fault from disk; contracts the index never saw keep it (they can
	// only exist if the original run never flushed them, which a
	// deterministic genesis makes impossible — but keeping is safe).
	byAddr := make(map[chain.Address]uint64, len(ix.Contracts))
	for _, e := range ix.Contracts {
		byAddr[e.Addr] = e.Version
	}
	for addr, u := range p.contracts {
		ver, ok := byAddr[addr]
		if !ok {
			continue
		}
		if u.c.State != nil {
			p.lruRemove(u)
			p.resident -= u.bytes
			u.c.State = nil
		}
		u.ver = ver
		u.dirty = false
	}
	if ix.NextVersion > p.nextVer {
		p.nextVer = ix.NextVersion
	}
	p.unsynced = p.unsynced[:0]
	p.garbage = p.garbage[:0]
	p.updateGauges()
	return p.sweepOrphansLocked()
}

// Flush commits the current state to disk as the new index: every
// dirty page is written out, all page files written since the last
// flush are fsynced, and the index — naming the checkpoint, the root,
// and every page's committed version — atomically replaces the old
// one. Superseded page files are deleted afterwards. The caller (the
// store) invokes Flush after the journal fsync for the same epoch, so
// the on-disk ordering is: journal record, page files, index.
func (p *Pager) Flush(cp shard.Checkpoint, root string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, u := range p.accPages {
		if u.dirty {
			if err := p.writeUnit(u); err != nil {
				return err
			}
		}
	}
	for _, u := range p.contracts {
		if u.dirty {
			if err := p.writeUnit(u); err != nil {
				return err
			}
		}
	}
	for _, name := range p.unsynced {
		if err := syncFile(filepath.Join(p.dir, name)); err != nil {
			return fmt.Errorf("pager: flush: %w", err)
		}
	}
	p.unsynced = p.unsynced[:0]

	ix := &wire.PageIndex{
		Checkpoint:  cp,
		Root:        root,
		PageCount:   p.pageCount,
		NextVersion: p.nextVer,
	}
	for pid, d := range p.diskAcc {
		ix.Accounts = append(ix.Accounts, wire.PageIndexAccounts{PageID: pid, Version: d.ver, Count: d.count})
	}
	for addr, u := range p.contracts {
		if u.ver != 0 {
			ix.Contracts = append(ix.Contracts, wire.PageIndexContract{Addr: addr, Version: u.ver})
		}
	}
	if err := p.writeIndex(ix); err != nil {
		return err
	}
	p.cp, p.root, p.haveIndex = cp, root, true
	for _, name := range p.garbage {
		os.Remove(filepath.Join(p.dir, name))
	}
	p.garbage = p.garbage[:0]
	return nil
}

// Close releases nothing durable — unflushed writes are intentionally
// discarded (recovery replays the journal tail). It exists so callers
// can treat the pager like the store's other resources.
func (p *Pager) Close() error { return nil }

// --- cache internals (all called with p.mu held) ---

// lruFront moves u to the most-recently-used position, inserting it if
// absent.
func (p *Pager) lruFront(u *unit) {
	if p.head == u {
		return
	}
	p.lruRemove(u)
	u.next = p.head
	if p.head != nil {
		p.head.prev = u
	}
	p.head = u
	if p.tail == nil {
		p.tail = u
	}
}

// lruRemove unlinks u if linked.
func (p *Pager) lruRemove(u *unit) {
	if p.head != u && u.prev == nil && u.next == nil {
		return
	}
	if u.prev != nil {
		u.prev.next = u.next
	} else {
		p.head = u.next
	}
	if u.next != nil {
		u.next.prev = u.prev
	} else {
		p.tail = u.prev
	}
	u.prev, u.next = nil, nil
}

// evictTo evicts least-recently-used units (never keep) until the
// resident footprint fits the budget or nothing evictable remains.
func (p *Pager) evictTo(keep *unit) {
	for p.resident > p.budget {
		victim := p.tail
		for victim == keep {
			victim = victim.prev
		}
		if victim == nil {
			return
		}
		if err := p.evict(victim); err != nil {
			// An eviction write failure is unrecoverable mid-run: the
			// budget cannot be honoured without losing committed state.
			panic(fmt.Sprintf("pager: eviction write-back: %v", err))
		}
	}
}

// evict writes u back if dirty, then drops its resident content.
func (p *Pager) evict(u *unit) error {
	if u.dirty {
		if err := p.writeUnit(u); err != nil {
			return err
		}
	}
	p.lruRemove(u)
	p.resident -= u.bytes
	switch u.kind {
	case kindAccounts:
		delete(p.accPages, u.pid)
		u.m = nil
	case kindContract:
		u.c.State = nil
	}
	p.evictions.Inc()
	p.updateGauges()
	return nil
}

// writeUnit writes u's current content as a fresh page-file version
// (not fsynced — Flush syncs in batch) and retires the old version to
// the garbage list.
func (p *Pager) writeUnit(u *unit) error {
	ver := p.nextVer
	p.nextVer++
	var name string
	var frame []byte
	switch u.kind {
	case kindAccounts:
		rows := make([]wire.SnapshotAccount, 0, len(u.m))
		for addr, acc := range u.m {
			rows = append(rows, wire.SnapshotAccount{
				Addr: addr, Balance: acc.Balance, Nonce: acc.Nonce, IsContract: acc.IsContract,
			})
		}
		name = accPageName(u.pid, ver)
		frame = wire.EncodeFrame(wire.MsgAccountPage, wire.EncodeAccountPage(&wire.AccountPage{
			PageID: u.pid, Version: ver, Accounts: rows,
		}))
		if old, ok := p.diskAcc[u.pid]; ok {
			p.garbage = append(p.garbage, accPageName(u.pid, old.ver))
		}
		p.diskAcc[u.pid] = diskPage{ver: ver, count: uint64(len(u.m))}
	case kindContract:
		payload, err := wire.EncodeContractPage(&wire.ContractPage{
			Addr: u.c.Addr, Version: ver, Fields: u.c.State.Fields,
		})
		if err != nil {
			return fmt.Errorf("pager: encode contract %s: %w", u.c.Addr, err)
		}
		name = contractPageName(u.c.Addr, ver)
		frame = wire.EncodeFrame(wire.MsgContractPage, payload)
		if u.ver != 0 {
			p.garbage = append(p.garbage, contractPageName(u.c.Addr, u.ver))
		}
	}
	if err := os.WriteFile(filepath.Join(p.dir, name), frame, 0o666); err != nil {
		return fmt.Errorf("pager: write page: %w", err)
	}
	u.ver = ver
	u.dirty = false
	p.unsynced = append(p.unsynced, name)
	p.writebacks.Inc()
	return nil
}

// pageOf maps an address to its page id: the top bits of the address,
// so sorted address order is sequential page order.
func (p *Pager) pageOf(addr chain.Address) uint32 {
	v := uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
	if p.shift >= 32 {
		return 0
	}
	return v >> p.shift
}

// accountPage returns the resident page for pid, faulting it from disk
// (or creating it empty) when absent.
func (p *Pager) accountPage(pid uint32) *unit {
	if u, ok := p.accPages[pid]; ok {
		p.hits.Inc()
		p.lruFront(u)
		return u
	}
	u := &unit{kind: kindAccounts, pid: pid, bytes: pageBaseBytes}
	if d, ok := p.diskAcc[pid]; ok {
		start := time.Now()
		page, err := p.readAccountPage(pid, d.ver)
		if err != nil {
			panic(fmt.Sprintf("pager: account page fault: %v", err))
		}
		u.m = make(map[chain.Address]*chain.Account, len(page.Accounts))
		for i := range page.Accounts {
			row := &page.Accounts[i]
			u.m[row.Addr] = &chain.Account{Balance: row.Balance, Nonce: row.Nonce, IsContract: row.IsContract}
			u.bytes += estAccountBytes(row.Balance)
		}
		p.faults.Inc()
		p.faultTime.ObserveDuration(time.Since(start))
	} else {
		u.m = make(map[chain.Address]*chain.Account)
	}
	p.accPages[pid] = u
	p.resident += u.bytes
	p.lruFront(u)
	p.evictTo(u)
	p.updateGauges()
	return u
}

// readAccountPage reads and decodes one account page file.
func (p *Pager) readAccountPage(pid uint32, ver uint64) (*wire.AccountPage, error) {
	b, err := os.ReadFile(filepath.Join(p.dir, accPageName(pid, ver)))
	if err != nil {
		return nil, err
	}
	typ, payload, rest, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgAccountPage || len(rest) != 0 {
		return nil, fmt.Errorf("%w: page file holds %v record (+%d trailing bytes)", ErrCorruptIndex, typ, len(rest))
	}
	page, err := wire.DecodeAccountPage(payload)
	if err != nil {
		return nil, err
	}
	if page.PageID != pid || page.Version != ver {
		return nil, fmt.Errorf("%w: page file says page %d v%d, expected page %d v%d",
			ErrCorruptIndex, page.PageID, page.Version, pid, ver)
	}
	return page, nil
}

func (p *Pager) updateGauges() {
	p.residentBytes.Set(p.resident)
	p.residentUnits.Set(int64(len(p.accPages) + p.lruContractCount()))
}

func (p *Pager) lruContractCount() int {
	n := 0
	for _, u := range p.contracts {
		if u.c.State != nil {
			n++
		}
	}
	return n
}

// --- index and file plumbing ---

// loadIndex reads pages.idx if present, adopting its geometry and page
// table.
func (p *Pager) loadIndex() error {
	ix, err := p.readIndex()
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	p.pageCount = ix.PageCount
	p.nextVer = ix.NextVersion
	p.cp, p.root, p.haveIndex = ix.Checkpoint, ix.Root, true
	p.accCount = 0
	for _, e := range ix.Accounts {
		p.diskAcc[e.PageID] = diskPage{ver: e.Version, count: e.Count}
		p.accCount += int64(e.Count)
	}
	// Contract entries are applied by ResetToDisk once the contracts
	// are admitted; stash nothing — readIndex re-reads the file then.
	return nil
}

// readIndex reads and decodes pages.idx.
func (p *Pager) readIndex() (*wire.PageIndex, error) {
	b, err := os.ReadFile(filepath.Join(p.dir, indexName))
	if err != nil {
		return nil, err
	}
	typ, payload, rest, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	if typ != wire.MsgPageIndex || len(rest) != 0 {
		return nil, fmt.Errorf("%w: holds %v record (+%d trailing bytes)", ErrCorruptIndex, typ, len(rest))
	}
	ix, err := wire.DecodePageIndex(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	return ix, nil
}

// writeIndex atomically replaces pages.idx.
func (p *Pager) writeIndex(ix *wire.PageIndex) error {
	path := filepath.Join(p.dir, indexName)
	tmp := path + ".tmp"
	frame := wire.EncodeFrame(wire.MsgPageIndex, wire.EncodePageIndex(ix))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("pager: index: %w", err)
	}
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(p.dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pager: index: %w", err)
	}
	return nil
}

// sweepOrphans deletes page files the committed index does not
// reference: leftovers of a window that never committed (crash between
// page writes and the index rename).
func (p *Pager) sweepOrphans() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sweepOrphansLocked()
}

func (p *Pager) sweepOrphansLocked() error {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("pager: %w", err)
	}
	indexedContract := make(map[string]bool, len(p.contracts))
	for addr, u := range p.contracts {
		if u.ver != 0 {
			indexedContract[contractPageName(addr, u.ver)] = true
		}
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".pg") {
			continue
		}
		keep := false
		if pid, ver, ok := parseAccPageName(name); ok {
			if d, exists := p.diskAcc[pid]; exists && d.ver == ver {
				keep = true
			}
		} else if indexedContract[name] {
			keep = true
		} else if strings.HasPrefix(name, "c") && len(p.contracts) == 0 && p.haveIndex {
			// Contracts not yet admitted (Open time): consult the index
			// directly so committed contract pages survive the sweep.
			ix, err := p.readIndex()
			if err != nil {
				return err
			}
			for _, ce := range ix.Contracts {
				if contractPageName(ce.Addr, ce.Version) == name {
					keep = true
					break
				}
			}
		}
		if !keep {
			os.Remove(filepath.Join(p.dir, name))
		}
	}
	return nil
}

// --- names and helpers ---

func accPageName(pid uint32, ver uint64) string {
	return fmt.Sprintf("a%08x-%d.pg", pid, ver)
}

func contractPageName(addr chain.Address, ver uint64) string {
	return fmt.Sprintf("c%x-%d.pg", addr[:], ver)
}

// parseAccPageName inverts accPageName.
func parseAccPageName(name string) (pid uint32, ver uint64, ok bool) {
	if len(name) < 10 || name[0] != 'a' || !strings.HasSuffix(name, ".pg") {
		return 0, 0, false
	}
	var p64 uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(name, ".pg"), "a%08x-%d", &p64, &ver); err != nil {
		return 0, 0, false
	}
	return uint32(p64), ver, true
}

func shiftFor(pageCount uint32) uint {
	s := uint(32)
	for pc := pageCount; pc > 1; pc >>= 1 {
		s--
	}
	return s
}

func ceilPow2(n uint32) uint32 {
	p := uint32(1)
	for p < n {
		p <<= 1
	}
	return p
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed index survives a power
// cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortedPageIDs returns the ids of every page that exists (resident or
// on disk), ascending — the streaming iteration order of Range.
func (p *Pager) sortedPageIDs() []uint32 {
	seen := make(map[uint32]bool, len(p.diskAcc)+len(p.accPages))
	for pid := range p.diskAcc {
		seen[pid] = true
	}
	for pid := range p.accPages {
		seen[pid] = true
	}
	out := make([]uint32, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
