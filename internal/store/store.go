// Package store is the durability backend behind
// shard.WithStateStore: an append-only journal of committed epochs
// plus periodic full-state snapshots, from which a restarted network
// recovers to the exact committed state — same epoch, same next
// transaction id, bit-identical authenticated root.
//
// On disk a state directory holds:
//
//	journal.log        one wire frame (MsgCheckpointBlock) per
//	                   committed epoch: the sealed FinalBlock and the
//	                   post-commit checkpoint
//	snapshot-<E>.snap  full state as of epoch E: header (checkpoint +
//	                   root), every contract's fields, every account,
//	                   and a trailer with the record counts
//
// Both files reuse the internal/wire frame format, so every record is
// length-prefixed and CRC-checked: a torn tail (crash mid-append) or a
// flipped bit is detected at the frame layer, never misparsed into
// wrong state. Snapshots are written to a temp file, fsynced, and
// renamed into place; the journal is fsynced after every epoch before
// the pipeline is allowed to continue.
//
// Recovery (Store.Recover, or the read-only Restore) loads the newest
// complete snapshot, verifies the rebuilt authenticated root against
// the snapshot header, then replays the journal tail — FinalBlocks
// past the snapshot's epoch — through the network's ordinary replay
// path, which re-verifies each block's root. A torn journal tail is
// truncated at the last valid frame (Recover) or ignored (Restore).
package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/pager"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// journalName is the append-only epoch journal inside a state dir.
const journalName = "journal.log"

// snapshotBatch is how many accounts ride in one MsgSnapshotAccounts
// frame; batching keeps frames small without a frame per account.
const snapshotBatch = 4096

// ErrCorruptSnapshot reports a snapshot file recovery cannot use:
// truncated, record counts off, or a state root that does not match
// its header after restore.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

// ErrJournalGap reports a journal whose next block skips past the
// recovered epoch — blocks are missing and replay cannot continue.
var ErrJournalGap = errors.New("store: journal gap")

// Store is a state directory opened for writing. It implements
// shard.StateStore: attach with shard.WithStateStore (or
// Network.AttachStateStore) and every committed epoch is journaled
// durably before the pipeline continues; every SnapshotEvery epochs
// the journal is compacted into a fresh full-state snapshot.
//
// A Store serves one network; EpochCommitted and Recover are
// serialised internally, so the node runtime's actor goroutine and a
// test harness can share one safely.
type Store struct {
	mu    sync.Mutex
	dir   string
	f     *os.File
	w     *bufio.Writer
	every uint64
	// cpBuf is the scratch a journal record's checkpoint is encoded in.
	cpBuf []byte

	// Paged mode (WithPagedState): state lives in pages/ behind an LRU
	// cache instead of full snapshot files.
	paged       bool
	pagedBudget int64
	pagedOpts   []pager.Option
	pager       *pager.Pager

	reg            *obs.Registry
	journalRecords *obs.Counter
	snapshots      *obs.Counter
	replayed       *obs.Counter
	journalBytes   *obs.Gauge
}

// Option configures a Store at Open time.
type Option func(*Store)

// WithSnapshotEvery sets the snapshot cadence: a full-state snapshot
// (and journal compaction) after every n committed epochs, whenever
// the checkpoint epoch is a multiple of n. n = 0 disables snapshots —
// the journal grows forever and recovery replays it from genesis.
// The default is 8.
func WithSnapshotEvery(n int) Option {
	return func(s *Store) {
		if n < 0 {
			n = 0
		}
		s.every = uint64(n)
	}
}

// WithRegistry counts the store's metrics (journal records and bytes,
// snapshots written, blocks replayed in recovery) in reg instead of a
// private registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.metrics(reg) }
}

func (s *Store) metrics(reg *obs.Registry) {
	s.reg = reg
	s.journalRecords = reg.Counter("store.journal_records")
	s.snapshots = reg.Counter("store.snapshots")
	s.replayed = reg.Counter("store.replayed_blocks")
	s.journalBytes = reg.Gauge("store.journal_bytes")
}

// Open opens (creating if needed) a state directory for writing. The
// journal is positioned for append; call Recover first on a directory
// that may hold previous state — opening alone reads nothing.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, f: f, every: 8}
	s.metrics(obs.NewRegistry())
	for _, o := range opts {
		o(s)
	}
	s.w = bufio.NewWriter(f)
	s.journalBytes.Set(end)
	if s.paged {
		if err := s.openPager(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close flushes and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// EpochCommitted implements shard.StateStore: append the committed
// block to the journal and fsync before returning, so a crash after
// this call replays the epoch and a crash during it truncates a torn
// frame. On a snapshot boundary the full state is dumped and the
// journal compacted.
func (s *Store) EpochCommitted(n *shard.Network, fb *shard.FinalBlock, cp shard.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	// The record is the checkpoint followed by the block's one byte
	// string — made here on the committee, the payload it received on a
	// replica — written as parts of one frame, never joined.
	payload, err := wire.SealedFinalBlock(fb)
	if err != nil {
		return fmt.Errorf("store: encode epoch %d: %w", fb.Epoch, err)
	}
	s.cpBuf = wire.AppendCheckpoint(s.cpBuf[:0], cp)
	written, err := wire.WriteFrameParts(s.w, wire.MsgCheckpointBlock, s.cpBuf, payload)
	if err != nil {
		return fmt.Errorf("store: journal epoch %d: %w", fb.Epoch, err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: journal epoch %d: %w", fb.Epoch, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: journal epoch %d: %w", fb.Epoch, err)
	}
	s.journalRecords.Inc()
	s.journalBytes.Add(int64(written))
	if s.every > 0 && cp.Epoch%s.every == 0 {
		if err := s.snapshot(n, cp); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot forces a full-state snapshot of n at its current checkpoint
// and compacts the journal. Replicas that caught up from another
// directory (Restore) call this so their own journal does not start
// with a gap: after a forced snapshot, recovery resumes from the
// snapshot instead of a journal whose last record predates the
// restored epoch.
func (s *Store) Snapshot(n *shard.Network) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	return s.snapshot(n, n.Checkpoint())
}

// snapshot dumps the network's full state as of cp into
// snapshot-<epoch>.snap, then compacts: the journal restarts empty and
// older snapshots are deleted. Called with s.mu held, between epochs
// (the pipeline is blocked in EpochCommitted), so canonical state is
// quiescent. In paged mode the page index takes the snapshot's place.
func (s *Store) snapshot(n *shard.Network, cp shard.Checkpoint) error {
	if s.pager != nil {
		return s.pagedCheckpoint(n, cp)
	}
	path := filepath.Join(s.dir, snapshotName(cp.Epoch))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("store: snapshot epoch %d: %w", cp.Epoch, err)
	}
	err = writeSnapshot(f, n, cp)
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
		err = syncDir(s.dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot epoch %d: %w", cp.Epoch, err)
	}
	s.snapshots.Inc()
	// The snapshot covers everything journaled so far: restart the
	// journal and drop superseded snapshots. A crash between the rename
	// and the truncation is benign — recovery skips journaled blocks at
	// or before the snapshot's epoch.
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	s.w.Reset(s.f)
	s.journalBytes.Set(0)
	for _, old := range snapshotsIn(s.dir) {
		if old.epoch < cp.Epoch {
			os.Remove(filepath.Join(s.dir, old.name))
		}
	}
	return nil
}

// writeSnapshot streams the snapshot records: header, contracts in
// address order, accounts in address order (batched), trailer.
func writeSnapshot(f *os.File, n *shard.Network, cp shard.Checkpoint) error {
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := wire.EncodeSnapshotHeader(&wire.SnapshotHeader{Checkpoint: cp, Root: n.StateRoot()})
	if err := wire.WriteFrame(w, wire.MsgSnapshotHeader, hdr); err != nil {
		return err
	}
	contracts := n.Contracts.All()
	sort.Slice(contracts, func(i, j int) bool {
		return bytes.Compare(contracts[i].Addr[:], contracts[j].Addr[:]) < 0
	})
	for _, c := range contracts {
		payload, err := wire.EncodeSnapshotContract(&wire.SnapshotContract{
			Addr: c.Addr, Fields: c.Snapshot().Fields,
		})
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(w, wire.MsgSnapshotContract, payload); err != nil {
			return err
		}
	}
	accs := make([]wire.SnapshotAccount, 0, n.Accounts.Len())
	n.Accounts.Range(func(addr chain.Address, acc *chain.Account) bool {
		accs = append(accs, wire.SnapshotAccount{
			Addr: addr, Balance: acc.Balance, Nonce: acc.Nonce, IsContract: acc.IsContract,
		})
		return true
	})
	slices.SortFunc(accs, func(a, b wire.SnapshotAccount) int { return bytes.Compare(a.Addr[:], b.Addr[:]) })
	for i := 0; i < len(accs); i += snapshotBatch {
		end := i + snapshotBatch
		if end > len(accs) {
			end = len(accs)
		}
		if err := wire.WriteFrame(w, wire.MsgSnapshotAccounts, wire.EncodeSnapshotAccounts(accs[i:end])); err != nil {
			return err
		}
	}
	trailer := wire.EncodeSnapshotEnd(&wire.SnapshotEnd{
		Contracts: uint64(len(contracts)), Accounts: uint64(len(accs)),
	})
	if err := wire.WriteFrame(w, wire.MsgSnapshotEnd, trailer); err != nil {
		return err
	}
	return w.Flush()
}

// Recover restores n from the state directory: newest complete
// snapshot first (root-verified), then the journal tail, truncating a
// torn final frame. The network must be freshly provisioned through
// the same deterministic genesis as the original run. On an empty
// directory it is a no-op and the network stays at genesis.
func (s *Store) Recover(n *shard.Network) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if s.pager != nil {
		return s.recoverPaged(n)
	}
	if err := restoreSnapshot(s.dir, n); err != nil {
		return err
	}
	return s.replayTail(n)
}

// Restore recovers a network from a state directory without touching
// it: no truncation, no journal handle kept. Replicas use it to catch
// up from another role's directory (e.g. a shard node re-syncing from
// the DS committee's state) before resuming live replay.
func Restore(dir string, n *shard.Network) error {
	if hasPagedState(dir) {
		return restorePaged(dir, n)
	}
	if err := restoreSnapshot(dir, n); err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	_, _, err = replayJournal(f, n, nil)
	return err
}

// replayJournal replays every journaled block past the network's
// epoch, returning how many applied and the byte offset after the last
// valid frame. A malformed frame ends the replay (torn tail); blocks
// at earlier epochs are skipped (already in the snapshot), and a block
// past the next expected epoch is a hard ErrJournalGap.
func replayJournal(f io.Reader, n *shard.Network, replayed *obs.Counter) (int, int64, error) {
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64
	count := 0
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return count, good, nil
		}
		if err != nil {
			if errors.Is(err, wire.ErrDecode) {
				// Torn or corrupt tail: recovery resumes from the last
				// fully-journaled epoch.
				return count, good, nil
			}
			return count, good, fmt.Errorf("store: journal: %w", err)
		}
		if typ != wire.MsgCheckpointBlock {
			return count, good, nil
		}
		cb, err := wire.DecodeCheckpointBlock(payload)
		if err != nil {
			return count, good, nil
		}
		good += int64(wire.HeaderLen + len(payload))
		switch {
		case cb.Block.Epoch < n.Epoch:
			// Covered by the snapshot (the journal outlived a compaction
			// that crashed before truncating).
		case cb.Block.Epoch > n.Epoch:
			return count, good, fmt.Errorf("%w: journaled epoch %d, expected %d",
				ErrJournalGap, cb.Block.Epoch, n.Epoch)
		default:
			if err := n.ReplayFinalBlock(cb.Block); err != nil {
				return count, good, fmt.Errorf("store: replay epoch %d: %w", cb.Block.Epoch, err)
			}
			// The checkpoint restores what replay cannot re-derive (the
			// exact next transaction id).
			n.RestoreCheckpoint(cb.Checkpoint)
			count++
			if replayed != nil {
				replayed.Inc()
			}
		}
	}
}

// restoreSnapshot loads the newest readable snapshot in dir into n and
// verifies the rebuilt root against the snapshot header. Unreadable
// (truncated) snapshots fall back to the next older one; no snapshot
// at all leaves n untouched.
func restoreSnapshot(dir string, n *shard.Network) error {
	snaps := snapshotsIn(dir)
	tried := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		tried++
		hdr, contracts, accs, err := readSnapshot(filepath.Join(dir, snaps[i].name))
		if err != nil {
			if errors.Is(err, ErrCorruptSnapshot) || errors.Is(err, wire.ErrDecode) {
				continue
			}
			return err
		}
		for _, c := range contracts {
			if err := n.RestoreContractState(c.Addr, c.Fields); err != nil {
				return fmt.Errorf("store: snapshot %s: %w", snaps[i].name, err)
			}
		}
		for _, a := range accs {
			n.Accounts.Put(a.Addr, a.Balance, a.Nonce, a.IsContract)
		}
		n.RestoreCheckpoint(hdr.Checkpoint)
		n.RebuildStateRoots()
		if root := n.StateRoot(); root != hdr.Root {
			return fmt.Errorf("%w: %s: restored root %s, header says %s",
				ErrCorruptSnapshot, snaps[i].name, root, hdr.Root)
		}
		return nil
	}
	if tried > 0 {
		// Snapshot files exist but none is readable: refusing beats
		// silently restarting from genesis with the journal compacted
		// (the epochs the snapshots covered would vanish without a
		// trace).
		return fmt.Errorf("%w: none of %d snapshot files readable", ErrCorruptSnapshot, tried)
	}
	return nil
}

// readSnapshot parses one snapshot file completely before any of it is
// applied, so a truncated file can be rejected without half-restoring.
func readSnapshot(path string) (*wire.SnapshotHeader, []*wire.SnapshotContract, []wire.SnapshotAccount, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	typ, payload, err := wire.ReadFrame(r)
	if err != nil || typ != wire.MsgSnapshotHeader {
		return nil, nil, nil, fmt.Errorf("%w: %s: missing header", ErrCorruptSnapshot, path)
	}
	hdr, err := wire.DecodeSnapshotHeader(payload)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, path, err)
	}
	var contracts []*wire.SnapshotContract
	var accs []wire.SnapshotAccount
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: %s: no end record", ErrCorruptSnapshot, path)
		}
		switch typ {
		case wire.MsgSnapshotContract:
			c, err := wire.DecodeSnapshotContract(payload)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, path, err)
			}
			contracts = append(contracts, c)
		case wire.MsgSnapshotAccounts:
			batch, err := wire.DecodeSnapshotAccounts(payload)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, path, err)
			}
			accs = append(accs, batch...)
		case wire.MsgSnapshotEnd:
			e, err := wire.DecodeSnapshotEnd(payload)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, path, err)
			}
			if e.Contracts != uint64(len(contracts)) || e.Accounts != uint64(len(accs)) {
				return nil, nil, nil, fmt.Errorf("%w: %s: trailer counts %d/%d, read %d/%d",
					ErrCorruptSnapshot, path, e.Contracts, e.Accounts, len(contracts), len(accs))
			}
			return hdr, contracts, accs, nil
		default:
			return nil, nil, nil, fmt.Errorf("%w: %s: unexpected %v record", ErrCorruptSnapshot, path, typ)
		}
	}
}

// snapshotRef is one snapshot file found in a state directory.
type snapshotRef struct {
	name  string
	epoch uint64
}

// snapshotsIn lists dir's snapshot files in ascending epoch order.
func snapshotsIn(dir string) []snapshotRef {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var snaps []snapshotRef
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		epoch, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".snap"), 10, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotRef{name: name, epoch: epoch})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].epoch < snaps[j].epoch })
	return snaps
}

func snapshotName(epoch uint64) string {
	return fmt.Sprintf("snapshot-%d.snap", epoch)
}

// syncDir fsyncs a directory so a just-renamed snapshot survives a
// power cut.
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
