// Package store is the durability backend behind
// shard.Network.AttachStateStore. Canonical state is always resident in
// memory; what the store keeps on disk is an append-only journal of
// committed epochs and at most one full snapshot file, from which a
// restarted network recovers to the exact committed state — same
// epoch, same next transaction id, bit-identical authenticated root. A
// directory the retired paged store wrote (a pages/ subdirectory) is
// refused with ErrPagedState.
//
// On disk a state directory holds:
//
//	journal.log        one wire frame (MsgCheckpointBlock) per epoch
//	                   committed since the snapshot file (or genesis):
//	                   the post-commit checkpoint and the sealed
//	                   FinalBlock
//	snapshot-<E>.snap  the whole state as of epoch E: a header
//	                   (checkpoint + root), contract components as
//	                   MsgStateDelta records of post-values, each of a
//	                   bounded number of components (every field
//	                   written whole; a map as the empty map and its
//	                   leaves), every account, a trailer with the
//	                   record counts
//
// The journal is the incremental record: the sealed blocks since the
// file are what changed since it. Each journaled block has a replay
// cost — one, plus its delta entries, plus its account rows, over the
// block's four state sections — and the store keeps the journal's sum.
// Every SnapshotEvery epochs the fold rule (Store.EpochCommitted) runs:
// once the journal costs as much to replay as the state has root-trie
// leaves, the store writes a full file, restarts the journal and
// deletes the older file; below that it writes nothing. Recovery so
// reads at most one state's worth of file and about one state's worth
// of journal, and a boundary that moved little writes nothing at all.
// The counted one per block bounds an idle journal too.
//
// All files reuse the internal/wire frame format, so every record is
// length-prefixed and CRC-checked: a torn tail (crash mid-append) or a
// flipped bit is detected at the frame layer, never misparsed into
// wrong state. A snapshot file is written to a temp file, fsynced, and
// renamed into place, the directory fsynced, and only then the journal
// truncated and the older file deleted; the journal is fsynced after
// every epoch before the pipeline is allowed to continue.
//
// Recovery (Store.Recover) provisions the same deterministic genesis
// the original run started from, applies the newest readable snapshot
// file over it (none: genesis), rebuilds the authenticated root once
// and verifies it against the file's header, then replays the journal
// — the FinalBlocks past the file's epoch — through the path replicas
// apply blocks by, which re-verifies each block's root. A torn journal
// tail is truncated at the last valid frame. A file that cannot be
// applied is passed over only while the journal still holds the
// blocks it covered (a crash between a file's rename and the
// truncation); otherwise recovery fails loudly rather than return an
// older state. A role reads only its own directory: a replica that
// recovered behind its committee catches up over the wire, from the
// committee's journal (Store.Blocks) or a state image (Image,
// ApplyImage): a full file's records, one frame each, read by the same
// parser.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cosplit/internal/chain"
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
// can rebuild it: Open refuses it before touching anything.
var ErrPagedState = errors.New("store: paged state directory (no longer readable)")

// Store is a state directory opened for writing. It implements
// shard.StateStore: attach with Network.AttachStateStore and every
// committed epoch is journaled durably before the pipeline continues;
// every SnapshotEvery epochs the fold rule decides whether the journal
// is folded into a new snapshot file.
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

	// full is 1 while the state rests on a snapshot file of the
	// directory, 0 while it rests on genesis; journalCost is the replay
	// cost of the blocks journaled since (replayCost); head is the epoch
	// the next block must have (a block that does not follow it means
	// the state moved under the store: EpochCommitted). fresh marks a
	// directory found empty at Open, whose first block shows the
	// genesis epoch it starts from.
	full        int
	journalCost int
	head        uint64
	fresh       bool

	journalRecords  *obs.Counter
	snapshots       *obs.Counter
	snapshotRecords *obs.Counter
	snapshotBytes   *obs.Counter
	replayed        *obs.Counter
	journalBytes    *obs.Gauge
	costGauge       *obs.Gauge
}

// Option configures a Store at Open time.
type Option func(*Store)

// WithSnapshotEvery sets how often the fold rule is checked: after
// every committed epoch whose checkpoint epoch is a multiple of n, the
// journal is folded into a full snapshot file once it costs as much to
// replay as the state has leaves. n = 0 disables snapshots — the
// journal grows forever and recovery replays it from genesis. The
// default is 8.
func WithSnapshotEvery(n int) Option {
	return func(s *Store) {
		if n < 0 {
			n = 0
		}
		s.every = uint64(n)
	}
}

// WithRegistry counts the store's metrics (journal records, bytes and
// replay cost; snapshot files written, with their records and bytes;
// blocks replayed in recovery) in reg instead of a private registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Store) { s.metrics(reg) }
}

func (s *Store) metrics(reg *obs.Registry) {
	s.journalRecords = reg.Counter("store.journal_records")
	s.snapshots = reg.Counter("store.snapshots")
	s.snapshotRecords = reg.Counter("store.snapshot_records")
	s.snapshotBytes = reg.Counter("store.snapshot_bytes")
	s.replayed = reg.Counter("store.replayed_blocks")
	s.journalBytes = reg.Gauge("store.journal_bytes")
	s.costGauge = reg.Gauge("store.journal_cost")
}

// Open opens (creating if needed) a state directory for writing. The
// journal is positioned for append; call Recover first on a directory
// that may hold previous state — opening alone reads nothing. A
// directory the retired paged store wrote fails with ErrPagedState
// before anything is created.
func Open(dir string, opts ...Option) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "pages")); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrPagedState, dir)
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
// frame. On a snapshot boundary the fold rule runs: once the journal
// costs at least as much to replay as the state has root-trie leaves,
// the store writes a full snapshot file and restarts the journal;
// below that it writes nothing.
//
// A block that does not follow the epoch the store last recovered or
// journaled means the state moved under the store (a replica applied a
// state image): the store writes a full snapshot file of the block's
// checkpoint instead, so recovery from the directory meets no journal
// gap. The block is not journaled first: the file covers it, and a
// crash before the file's rename leaves the directory on the state
// before the image, which the replica catches up from again.
func (s *Store) EpochCommitted(n *shard.Network, fb *shard.FinalBlock, cp shard.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if s.fresh {
		// Nothing precedes this block: it starts from genesis.
		s.head, s.fresh = fb.Epoch, false
	}
	if fb.Epoch != s.head {
		return s.snapshot(n, cp)
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
	s.head = fb.Epoch + 1
	s.journalCost += replayCost(fb)
	s.costGauge.Set(int64(s.journalCost))
	if s.every > 0 && cp.Epoch%s.every == 0 && s.journalCost >= n.StateLeaves() {
		return s.snapshot(n, cp)
	}
	return nil
}

// replayCost is what replaying fb costs recovery, in the unit the fold
// rule weighs against the state's root-trie leaves: one for the block,
// one per delta entry or field written whole and one per account row,
// over the block's four state sections. The one per block bounds a
// journal of empty blocks.
func replayCost(fb *shard.FinalBlock) int {
	cost := 1 + accountRows(fb.Accounts) + accountRows(fb.DSAccounts)
	for _, d := range fb.Deltas {
		cost += d.Size()
	}
	for _, d := range fb.DSDeltas {
		cost += d.Size()
	}
	return cost
}

func accountRows(ad *chain.AccountDelta) int {
	if ad == nil {
		return 0
	}
	return len(ad.BalanceDeltas) + len(ad.Nonces)
}

// snapshot writes the full file snapshot-<epoch>.snap of cp, restarts
// the journal and deletes the older file. Called with s.mu held,
// between epochs (the pipeline is blocked in EpochCommitted), so
// canonical state is quiescent. A crash before the rename leaves the
// older file and the journal; after it, recovery skips the journaled
// blocks the file covers and removes the older file.
func (s *Store) snapshot(n *shard.Network, cp shard.Checkpoint) error {
	size, err := writeSnapshotFile(s.dir, snapshotName(cp.Epoch), func(put putRecord) error {
		return writeFull(put, n, cp)
	})
	if err != nil {
		return fmt.Errorf("store: snapshot epoch %d: %w", cp.Epoch, err)
	}
	s.snapshots.Inc()
	s.snapshotBytes.Add(size)
	s.snapshotRecords.Add(int64(n.StateLeaves()))
	s.full, s.journalCost, s.head, s.fresh = 1, 0, cp.Epoch, false
	s.costGauge.Set(0)
	if err := s.compactJournal(); err != nil {
		return err
	}
	for _, old := range snapshotsIn(s.dir) {
		if old.epoch < cp.Epoch {
			os.Remove(filepath.Join(s.dir, old.name))
		}
	}
	return nil
}

// Recover restores n from the state directory: the newest readable
// snapshot file (one root check), then the journal, truncating a torn
// final frame. The network must be freshly provisioned through the same
// deterministic genesis as the original run, which a directory without
// a file rests on. On an empty directory it is a no-op and the network
// stays at genesis. A state older than a snapshot file of the directory
// is never returned as recovered: if the newest file cannot be applied
// and the journal does not make up for it, Recover fails with
// ErrCorruptSnapshot and leaves n as it was — as it does on a file of a
// retired format, such as an incremental file.
//
// Recover owns the directory: it removes what a crash inside a snapshot
// left behind — temp files, and snapshot files other than the one
// recovered from.
func (s *Store) Recover(n *shard.Network) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	base, err := pickSnapshot(s.dir)
	if err != nil {
		return err
	}
	if base.stopped != nil {
		// Only the journal can carry the state past the newest file:
		// check that it does before anything is applied.
		from := n.Epoch
		if base.file != nil {
			from = base.file.hdr.Checkpoint.Epoch
		}
		reached, err := journalReach(s.f, from)
		if err != nil {
			return err
		}
		if reached < base.newest {
			return fmt.Errorf("%w (the journal reaches epoch %d, the directory holds a snapshot of epoch %d)",
				base.stopped, reached, base.newest)
		}
	}
	if base.file != nil {
		if err := base.file.apply(n); err != nil {
			return err
		}
		if err := base.file.settle(n); err != nil {
			return err
		}
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	cost := 0
	good, err := replayJournal(s.f, n, func(fb *shard.FinalBlock) {
		s.replayed.Inc()
		cost += replayCost(fb)
	})
	if err != nil {
		return err
	}
	if base.stopped != nil && n.Epoch < base.newest {
		return fmt.Errorf("%w (recovery reached epoch %d, the directory holds a snapshot of epoch %d)",
			base.stopped, n.Epoch, base.newest)
	}
	if err := s.truncateJournal(good); err != nil {
		return err
	}
	for _, name := range base.unused {
		os.Remove(filepath.Join(s.dir, name))
	}
	if tmps, err := filepath.Glob(filepath.Join(s.dir, "snapshot-*.snap"+tmpSuffix)); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
	s.full = 0
	if base.file != nil {
		s.full = 1
	}
	s.journalCost, s.head, s.fresh = cost, n.Epoch, false
	s.costGauge.Set(int64(cost))
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
// rests on, as recovered or as written since: 1 for a full file, 0
// for genesis.
func (s *Store) Chain() (full int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.full
}

// readJournal reads the journal records of r in order and hands each
// one's checkpoint epoch — the epoch its block advanced the network to
// — and payload to each, which reports whether to go on. The payload is
// scratch, valid during the call only. A torn or corrupt frame, or a
// frame of another type, ends the journal: what precedes it is what was
// durably journaled. It returns the offset after the last record each
// went on from.
func readJournal(r io.Reader, each func(epoch uint64, payload []byte) (bool, error)) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var good int64
	var frame []byte
	for {
		raw, err := wire.AppendRawFrame(frame[:0], br)
		if err == io.EOF || errors.Is(err, wire.ErrDecode) {
			return good, nil // a torn tail: the journal ends before it
		}
		if err != nil {
			return good, fmt.Errorf("store: journal: %w", err)
		}
		frame = raw
		typ, payload, _, err := wire.DecodeFrame(frame)
		if err != nil || typ != wire.MsgCheckpointBlock {
			return good, nil
		}
		// A record opens with its checkpoint (wire.AppendCheckpoint),
		// whose first field is the epoch.
		epoch, k := binary.Uvarint(payload)
		if k <= 0 {
			return good, nil
		}
		if more, err := each(epoch, payload); !more || err != nil {
			return good, err
		}
		good += int64(len(frame))
	}
}

// journalReach is the epoch the journal of r carries a state of epoch
// from to: from itself when its blocks do not continue from there.
func journalReach(r io.ReadSeeker, from uint64) (uint64, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: recover: %w", err)
	}
	reached := from
	_, err := readJournal(r, func(epoch uint64, _ []byte) (bool, error) {
		if epoch == reached+1 {
			reached = epoch
		}
		return epoch <= reached, nil
	})
	return reached, err
}

// replayJournal replays every journaled block past the network's
// epoch, handing each to each once applied, and returns the byte
// offset after the last valid frame. A malformed record ends the
// replay (torn tail); blocks at earlier epochs are skipped (already in
// the snapshot), and a block past the next expected epoch is a hard
// ErrJournalGap.
func replayJournal(r io.Reader, n *shard.Network, each func(*shard.FinalBlock)) (int64, error) {
	return readJournal(r, func(epoch uint64, payload []byte) (bool, error) {
		if epoch <= n.Epoch {
			// Covered by the snapshot (the journal outlived a compaction
			// that crashed before truncating).
			return true, nil
		}
		// The block keeps its bytes: they are its seal.
		cb, err := wire.DecodeCheckpointBlock(bytes.Clone(payload))
		if err != nil {
			return false, nil
		}
		if cb.Block.Epoch != n.Epoch {
			return false, fmt.Errorf("%w: journaled epoch %d, expected %d",
				ErrJournalGap, cb.Block.Epoch, n.Epoch)
		}
		if err := n.ReplayFinalBlock(cb.Block); err != nil {
			return false, fmt.Errorf("store: replay epoch %d: %w", cb.Block.Epoch, err)
		}
		// The checkpoint restores what replay cannot re-derive (the
		// exact next transaction id).
		n.RestoreCheckpoint(cb.Checkpoint)
		each(cb.Block)
		return true, nil
	})
}
