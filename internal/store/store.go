// Package store is the durability backend behind
// shard.Network.AttachStateStore. Canonical state is always resident in
// memory; what the store keeps on disk is an append-only journal of
// committed epochs plus periodic snapshots that cost what changed, from
// which a restarted network recovers to the exact committed state —
// same epoch, same next transaction id, bit-identical authenticated
// root. A directory the retired paged store wrote (a pages/
// subdirectory) is refused with ErrPagedState.
//
// On disk a state directory holds:
//
//	journal.log        one wire frame (MsgCheckpointBlock) per epoch
//	                   committed since the newest snapshot file: the
//	                   sealed FinalBlock and the post-commit checkpoint
//	snapshot-<E>.snap  state as of epoch E. A full file: header
//	                   (checkpoint + root), every contract's fields,
//	                   every account, a trailer with the record counts.
//	                   An incremental file: header, the epoch of the
//	                   file (or genesis) it extends, then only what
//	                   changed since that epoch — contract components as
//	                   MsgStateDelta records of post-values (Overwrite,
//	                   Delete, whole field), accounts — and the trailer
//
// The files of a directory form a chain: at most one full file, then
// the incremental files written since, each naming the one before it.
// Recovery provisions the same deterministic genesis the original run
// started from and writes the chain over it, so a file only ever needs
// what differs; a chain with no full file rests on genesis itself.
//
// Every SnapshotEvery epochs the store writes the next file and
// restarts the journal. It keeps the keys — never the values — that
// the blocks journaled since the last file wrote, and the fold rule
// (Store.snapshot) picks the file's kind from what it can count: an
// incremental file while the chain's incremental files plus this one,
// costed in leaves of a full file, stay below the root trie's leaf
// count, else a full file, after which everything older is deleted.
// Two bounds follow: recovery reads fewer than two states' worth of
// records, and the directory holds less than two full snapshots plus
// the journal. A boundary that touched 4 % of the state writes 4 % of
// it.
//
// All files reuse the internal/wire frame format, so every record is
// length-prefixed and CRC-checked: a torn tail (crash mid-append) or a
// flipped bit is detected at the frame layer, never misparsed into
// wrong state. Snapshots are written to a temp file, fsynced, and
// renamed into place, the directory fsynced, and only then the journal
// truncated; the journal is fsynced after every epoch before the
// pipeline is allowed to continue.
//
// Recovery (Store.Recover, or the read-only Restore) applies the
// newest readable full file and each later incremental file whose base
// is the epoch reached, rebuilds the authenticated root once and
// verifies it against the last header applied, then replays the
// journal tail — FinalBlocks past the chain's epoch — through the
// network's ordinary replay path, which re-verifies each block's root.
// A torn journal tail is truncated at the last valid frame (Recover)
// or ignored (Restore). A file that cannot be applied ends the chain
// there; unless the journal still holds the blocks it covered (a crash
// between a file's rename and the truncation), recovery fails loudly
// rather than return an older state.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// journalName is the append-only epoch journal inside a state dir.
const journalName = "journal.log"

// ErrCorruptSnapshot reports a snapshot file recovery cannot use:
// truncated, record counts off, out of sequence in its chain, or a
// state root that does not match its header after restore.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

// ErrJournalGap reports a journal whose next block skips past the
// recovered epoch — blocks are missing and replay cannot continue.
var ErrJournalGap = errors.New("store: journal gap")

// ErrPagedState reports a directory written by the retired paged store.
// Its state lived in a pages/ subdirectory and every page flush
// truncated the journal, so neither the snapshot chain nor the journal
// can rebuild it: Open and Restore refuse it before touching anything.
var ErrPagedState = errors.New("store: paged state directory (no longer readable)")

// refusePaged fails with ErrPagedState when dir holds a pages/
// subdirectory.
func refusePaged(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "pages")); err == nil {
		return fmt.Errorf("%w: %s", ErrPagedState, dir)
	}
	return nil
}

// Store is a state directory opened for writing. It implements
// shard.StateStore: attach with Network.AttachStateStore and every
// committed epoch is journaled
// durably before the pipeline continues; every SnapshotEvery epochs
// the journal is compacted into the next snapshot file.
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

	// What the next snapshot file extends. chain is the directory's
	// snapshot files as recovered or written since (chain.epoch: the
	// newest one's, or genesis), dirty the keys written by the blocks
	// journaled after it, head the epoch the next block must have.
	// tracked says dirty is complete: after Recover or a file of this
	// store's own, until a block arrives out of sequence or the keys
	// are given up as too many (EpochCommitted). fresh marks a
	// directory found empty at Open, whose first block shows the
	// genesis epoch it starts from.
	chain   snapshotChain
	dirty   dirtySet
	head    uint64
	tracked bool
	fresh   bool

	journalRecords  *obs.Counter
	snapshots       *obs.Counter
	snapshotsFull   *obs.Counter
	snapshotRecords *obs.Counter
	snapshotBytes   *obs.Counter
	replayed        *obs.Counter
	journalBytes    *obs.Gauge
	chainRecords    *obs.Gauge
}

// Option configures a Store at Open time.
type Option func(*Store)

// WithSnapshotEvery sets the snapshot cadence: a durable recovery point
// (a snapshot file, incremental or full by the fold rule) and a journal
// compaction after every n committed epochs, whenever the checkpoint
// epoch is a multiple of n. n = 0 disables snapshots — the journal
// grows forever and recovery replays it from genesis. The default is 8.
func WithSnapshotEvery(n int) Option {
	return func(s *Store) {
		if n < 0 {
			n = 0
		}
		s.every = uint64(n)
	}
}

// WithRegistry counts the store's metrics (journal records and bytes;
// snapshot boundaries, how many wrote a full file, the records and
// bytes they wrote and the records in the chain's incremental files;
// blocks replayed in recovery) in reg instead of a private registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.metrics(reg) }
}

func (s *Store) metrics(reg *obs.Registry) {
	s.journalRecords = reg.Counter("store.journal_records")
	s.snapshots = reg.Counter("store.snapshots")
	s.snapshotsFull = reg.Counter("store.snapshots_full")
	s.snapshotRecords = reg.Counter("store.snapshot_records")
	s.snapshotBytes = reg.Counter("store.snapshot_bytes")
	s.replayed = reg.Counter("store.replayed_blocks")
	s.journalBytes = reg.Gauge("store.journal_bytes")
	s.chainRecords = reg.Gauge("store.chain_records")
}

// Open opens (creating if needed) a state directory for writing. The
// journal is positioned for append; call Recover first on a directory
// that may hold previous state — opening alone reads nothing. A
// directory the retired paged store wrote fails with ErrPagedState
// before anything is created.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := refusePaged(dir); err != nil {
		return nil, err
	}
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
	s.fresh = end == 0 && len(snapshotsIn(dir)) == 0
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
// frame. On a snapshot boundary the next snapshot file is written and
// the journal compacted.
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
	if s.fresh {
		// Nothing precedes this block: it starts from genesis.
		s.chain.epoch, s.head = fb.Epoch, fb.Epoch
		s.tracked, s.fresh = true, false
	}
	switch {
	case !s.tracked:
	case s.every == 0 || fb.Epoch != s.head:
		// No boundary will read the keys, or a block went missing.
		s.untrack()
	default:
		s.dirty.add(fb)
		s.head = fb.Epoch + 1
		// The keys only matter while the boundary could still write
		// them as an incremental file. If at the interval's rate so far
		// they will cost as much as the state by then, it will fold
		// whatever follows: the rest of the interval is not recorded.
		elapsed := s.head - s.chain.epoch
		left := (s.every - cp.Epoch%s.every) % s.every
		projected := s.dirty.cost + s.dirty.cost*int(left)/int(elapsed)
		if s.chain.cost+projected >= n.StateLeaves() {
			s.untrack()
		}
	}
	if s.every > 0 && cp.Epoch%s.every == 0 {
		if err := s.snapshot(n, cp, false); err != nil {
			return err
		}
	}
	return nil
}

// untrack gives up the dirty set: the next boundary writes a full file.
func (s *Store) untrack() {
	s.tracked = false
	s.dirty.reset()
}

// Snapshot forces a full snapshot of n at its current checkpoint —
// always the whole state, whatever the fold rule would pick: the
// store has not seen how n got there — compacts the journal and deletes
// every older snapshot file. Replicas that caught up from another
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
	return s.snapshot(n, n.Checkpoint(), true)
}

// snapshot writes snapshot-<epoch>.snap for cp and compacts the
// journal. Called with s.mu held, between epochs (the pipeline is
// blocked in EpochCommitted), so canonical state is quiescent.
//
// The fold rule decides what the file holds, counting in leaves of a
// full file: a dirty account costs one, a dirty contract component the
// leaves its value renders to, and an entry record entryCost more for
// the keypath it carries. The file is an incremental one, the
// post-state of the dirty keys, while the chain stays smaller than the
// state: the cost of the incremental files since the last full one plus
// this file's — first as the keys alone predict it, then as counted
// with the values read — must stay below the root trie's leaf count.
// Otherwise, and when the dirty set may have missed a block, and always
// when forced, the file is a full dump, after which every older file is
// deleted. So the incremental files since a full one hold fewer records
// than the state has leaves: recovery reads less than two states' worth,
// and the directory holds less than two full snapshots plus the journal.
func (s *Store) snapshot(n *shard.Network, cp shard.Checkpoint, forced bool) error {
	leaves := n.StateLeaves()
	var inc *incremental
	if !forced && s.tracked && s.chain.cost+s.dirty.cost < leaves {
		built, err := s.dirty.post(n)
		if err != nil {
			return fmt.Errorf("store: snapshot epoch %d: %w", cp.Epoch, err)
		}
		if s.chain.cost+built.cost < leaves {
			inc = built
		}
	}
	size, err := writeSnapshotFile(s.dir, snapshotName(cp.Epoch), func(w *bufio.Writer) error {
		if inc != nil {
			return writeIncremental(w, n, cp, s.chain.epoch, inc)
		}
		return writeFull(w, n, cp)
	})
	if err != nil {
		return fmt.Errorf("store: snapshot epoch %d: %w", cp.Epoch, err)
	}
	s.snapshots.Inc()
	s.snapshotBytes.Add(size)
	if inc != nil {
		s.chain.incremental++
		s.chain.cost += inc.cost
		s.snapshotRecords.Add(int64(inc.cost))
	} else {
		s.chain.full, s.chain.incremental, s.chain.cost = 1, 0, 0
		s.snapshotsFull.Inc()
		s.snapshotRecords.Add(int64(leaves))
	}
	s.chainRecords.Set(int64(s.chain.cost))
	s.chain.epoch, s.head = cp.Epoch, cp.Epoch
	s.dirty.reset()
	s.tracked, s.fresh = true, false
	// The file covers everything journaled so far: restart the journal.
	// A crash between the rename and the truncation is benign — recovery
	// skips journaled blocks at or before the snapshot's epoch.
	if err := s.compactJournal(); err != nil {
		return err
	}
	if inc == nil {
		for _, old := range snapshotsIn(s.dir) {
			if old.epoch < cp.Epoch {
				os.Remove(filepath.Join(s.dir, old.name))
			}
		}
	}
	return nil
}

// Recover restores n from the state directory: the snapshot chain
// (newest readable full file, then the incremental files after it, one
// root check), then the journal tail, truncating a torn final frame.
// The network must be freshly provisioned through the same
// deterministic genesis as the original run — snapshot files hold what
// differs from it. On an empty directory it is a no-op and the network
// stays at genesis. A state older than a snapshot file of the directory
// is never returned as recovered: if the chain cannot be applied up to
// its newest file and the journal does not make up for it, Recover
// fails with ErrCorruptSnapshot or ErrJournalGap.
//
// Recover owns the directory: it removes what a crash inside a snapshot
// left behind — temp files, and snapshot files the recovered chain does
// not use.
func (s *Store) Recover(n *shard.Network) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	// The blocks replayed from the journal are the ones committed since
	// the chain's last file: their keys belong in the next one.
	s.dirty.reset()
	sc, good, err := restore(s.dir, s.f, n, func(fb *shard.FinalBlock) {
		s.replayed.Inc()
		if s.every > 0 {
			s.dirty.add(fb)
		}
	})
	if err != nil {
		return err
	}
	if err := s.truncateJournal(good); err != nil {
		return err
	}
	for _, name := range sc.unused {
		os.Remove(filepath.Join(s.dir, name))
	}
	if tmps, err := filepath.Glob(filepath.Join(s.dir, "snapshot-*.snap"+tmpSuffix)); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	s.chain, s.head = sc.snapshotChain, n.Epoch
	s.tracked, s.fresh = s.every > 0, false
	s.chainRecords.Set(int64(sc.cost))
	return nil
}

// compactJournal restarts the journal after a snapshot has made its
// contents redundant. Called with s.mu held.
func (s *Store) compactJournal() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	s.w.Reset(s.f)
	s.journalBytes.Set(0)
	return nil
}

// truncateJournal cuts the journal after its last valid frame, at
// offset good, and positions it for append. Called with s.mu held.
func (s *Store) truncateJournal(good int64) error {
	if err := s.f.Truncate(good); err != nil {
		return fmt.Errorf("store: recover: truncate journal: %w", err)
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	s.w.Reset(s.f)
	s.journalBytes.Set(good)
	return nil
}

// Chain reports the snapshot files the directory's state currently
// rests on, as recovered or as written since: full (0 when it rests on
// genesis, else 1) and the incremental files after it.
func (s *Store) Chain() (full, incremental int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain.full, s.chain.incremental
}

// Restore recovers a network from a state directory without touching
// it: no truncation, no sweep, no journal handle kept. Replicas use it
// to catch up from another role's directory (e.g. a shard node
// re-syncing from the DS committee's state) before resuming live
// replay. Like Open, it refuses a paged directory with ErrPagedState.
func Restore(dir string, n *shard.Network) error {
	if err := refusePaged(dir); err != nil {
		return err
	}
	var journal io.Reader
	switch f, err := os.Open(filepath.Join(dir, journalName)); {
	case err == nil:
		defer f.Close()
		journal = f
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("store: %w", err)
	}
	_, _, err := restore(dir, journal, n, nil)
	return err
}

// restore is the one reader behind Recover and Restore: the snapshot
// chain, then the journal (nil: there is none) replayed on top, each
// applied block handed to each. It returns the chain applied and the
// journal offset after the last valid frame. Recovery that ends below
// the newest snapshot file's epoch is an error: that file was written
// after the journal gave up the blocks before it.
func restore(dir string, journal io.Reader, n *shard.Network, each func(*shard.FinalBlock)) (restoredChain, int64, error) {
	sc, err := restoreChain(dir, n)
	if err != nil {
		return sc, 0, err
	}
	var good int64
	if journal != nil {
		if good, err = replayJournal(journal, n, each); err != nil {
			if sc.stopped != nil && errors.Is(err, ErrJournalGap) {
				err = fmt.Errorf("%w; %w", sc.stopped, err)
			}
			return sc, good, err
		}
	}
	if sc.stopped != nil && n.Epoch < sc.newest {
		return sc, good, fmt.Errorf("%w (recovery reached epoch %d, the directory holds a snapshot of epoch %d)",
			sc.stopped, n.Epoch, sc.newest)
	}
	return sc, good, nil
}

// replayJournal replays every journaled block past the network's
// epoch, handing each to each (if not nil) once applied, and returns
// the byte offset after the last valid frame. A malformed frame ends
// the replay (torn tail); blocks at earlier epochs are skipped (already
// in the snapshot), and a block past the next expected epoch is a hard
// ErrJournalGap.
func replayJournal(f io.Reader, n *shard.Network, each func(*shard.FinalBlock)) (int64, error) {
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return good, nil
		}
		if err != nil {
			if errors.Is(err, wire.ErrDecode) {
				// Torn or corrupt tail: recovery resumes from the last
				// fully-journaled epoch.
				return good, nil
			}
			return good, fmt.Errorf("store: journal: %w", err)
		}
		if typ != wire.MsgCheckpointBlock {
			return good, nil
		}
		cb, err := wire.DecodeCheckpointBlock(payload)
		if err != nil {
			return good, nil
		}
		good += int64(wire.HeaderLen + len(payload))
		switch {
		case cb.Block.Epoch < n.Epoch:
			// Covered by the snapshot (the journal outlived a compaction
			// that crashed before truncating).
		case cb.Block.Epoch > n.Epoch:
			return good, fmt.Errorf("%w: journaled epoch %d, expected %d",
				ErrJournalGap, cb.Block.Epoch, n.Epoch)
		default:
			if err := n.ReplayFinalBlock(cb.Block); err != nil {
				return good, fmt.Errorf("store: replay epoch %d: %w", cb.Block.Epoch, err)
			}
			// The checkpoint restores what replay cannot re-derive (the
			// exact next transaction id).
			n.RestoreCheckpoint(cb.Checkpoint)
			if each != nil {
				each(cb.Block)
			}
		}
	}
}
