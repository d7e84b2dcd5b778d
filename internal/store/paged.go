package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cosplit/internal/pager"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// pagesDirName is the paged-state subdirectory inside a state dir.
const pagesDirName = "pages"

// WithPagedState turns the store's state dumps into a paged,
// disk-backed backing store: instead of materialising full
// snapshot-<E>.snap files, the state lives in a <dir>/pages/ directory
// of account and contract page files behind an LRU cache of at most
// budget bytes (0 means pager.DefaultBudget). On snapshot boundaries
// the store flushes dirty pages and commits the page index where it
// would have written a snapshot; recovery rebuilds the root by
// streaming pages through the cache, never holding the full state in
// memory. Recover also adopts the network's account table and
// contracts onto the pager — call it even on a fresh directory.
// Extra pager options (page count, registry) pass through.
func WithPagedState(budget int64, popts ...pager.Option) Option {
	return func(s *Store) {
		s.paged = true
		s.pagedBudget = budget
		s.pagedOpts = popts
	}
}

// Pager returns the paged-state backing store, or nil when the store
// is in snapshot mode.
func (s *Store) Pager() *pager.Pager { return s.pager }

// openPager opens the pages/ subdirectory; called at Open time when
// WithPagedState was given.
func (s *Store) openPager() error {
	popts := []pager.Option{pager.WithBudget(s.pagedBudget), pager.WithRegistry(s.reg)}
	popts = append(popts, s.pagedOpts...)
	p, err := pager.Open(filepath.Join(s.dir, pagesDirName), popts...)
	if err != nil {
		return err
	}
	s.pager = p
	return nil
}

// pagedCheckpoint is the paged counterpart of snapshot(): flush dirty
// pages, commit the index at cp, compact the journal. Called with s.mu
// held, between epochs, so canonical state is quiescent.
func (s *Store) pagedCheckpoint(n *shard.Network, cp shard.Checkpoint) error {
	s.pager.Adopt(n.Accounts, n.Contracts)
	if err := s.pager.Flush(cp, n.StateRoot()); err != nil {
		return fmt.Errorf("store: paged flush epoch %d: %w", cp.Epoch, err)
	}
	s.snapshots.Inc()
	return s.compactJournal()
}

// recoverPaged restores n from the page index: adopt the
// freshly-provisioned genesis onto the pager, reset to the committed
// on-disk state, rebuild the root trie by streaming every page through
// the bounded cache, verify it against the index, then replay the
// journal tail. Without an index the genesis state stands and the
// journal replays from the start, exactly like snapshot-mode recovery
// of a snapshotless directory. Called with s.mu held.
func (s *Store) recoverPaged(n *shard.Network) error {
	p := s.pager
	p.Adopt(n.Accounts, n.Contracts)
	cp, root, ok := p.Checkpoint()
	if ok {
		if err := p.ResetToDisk(); err != nil {
			return err
		}
		n.RestoreCheckpoint(cp)
		n.RebuildStateRoots()
		if got := n.StateRoot(); got != root {
			return fmt.Errorf("%w: rebuilt root %s, page index says %s",
				pager.ErrCorruptIndex, got, root)
		}
	}
	return s.replayTail(n)
}

// restorePaged is the read-only paged counterpart of Restore: stream
// the committed pages of another node's directory into n (whatever
// backend n uses), verify the rebuilt root against the index, then
// replay the journal without touching anything. No pager is opened —
// opening one sweeps orphans, and a live node owns that directory.
func restorePaged(dir string, n *shard.Network) error {
	pagesDir := filepath.Join(dir, pagesDirName)
	ix, err := readPageIndex(pagesDir)
	if err != nil {
		return err
	}
	for _, ce := range ix.Contracts {
		page, err := readPageFile(pagesDir, fmt.Sprintf("c%x-%d.pg", ce.Addr[:], ce.Version), wire.MsgContractPage)
		if err != nil {
			return err
		}
		cp, err := wire.DecodeContractPage(page)
		if err != nil {
			return fmt.Errorf("%w: %v", pager.ErrCorruptIndex, err)
		}
		if err := n.RestoreContractState(cp.Addr, cp.Fields); err != nil {
			return fmt.Errorf("store: paged restore: %w", err)
		}
	}
	for _, ae := range ix.Accounts {
		page, err := readPageFile(pagesDir, fmt.Sprintf("a%08x-%d.pg", ae.PageID, ae.Version), wire.MsgAccountPage)
		if err != nil {
			return err
		}
		ap, err := wire.DecodeAccountPage(page)
		if err != nil {
			return fmt.Errorf("%w: %v", pager.ErrCorruptIndex, err)
		}
		for i := range ap.Accounts {
			a := &ap.Accounts[i]
			n.Accounts.Put(a.Addr, a.Balance, a.Nonce, a.IsContract)
		}
	}
	n.RestoreCheckpoint(ix.Checkpoint)
	n.RebuildStateRoots()
	if got := n.StateRoot(); got != ix.Root {
		return fmt.Errorf("%w: restored root %s, page index says %s",
			pager.ErrCorruptIndex, got, ix.Root)
	}
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	_, err = replayJournal(f, n, nil)
	return err
}

// hasPagedState reports whether dir holds a committed page index.
func hasPagedState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, pagesDirName, "pages.idx"))
	return err == nil
}

// readPageIndex reads and decodes pages.idx from a pages directory.
func readPageIndex(pagesDir string) (*wire.PageIndex, error) {
	payload, err := readPageFile(pagesDir, "pages.idx", wire.MsgPageIndex)
	if err != nil {
		return nil, err
	}
	ix, err := wire.DecodePageIndex(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pager.ErrCorruptIndex, err)
	}
	return ix, nil
}

// readPageFile reads one single-frame page file and returns its
// payload after checking the frame type.
func readPageFile(pagesDir, name string, want wire.MsgType) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(pagesDir, name))
	if err != nil {
		return nil, fmt.Errorf("store: paged restore: %w", err)
	}
	typ, payload, rest, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", pager.ErrCorruptIndex, name, err)
	}
	if typ != want || len(rest) != 0 {
		return nil, fmt.Errorf("%w: %s holds %v record (+%d trailing bytes)",
			pager.ErrCorruptIndex, name, typ, len(rest))
	}
	return payload, nil
}

// compactJournal restarts the journal after a snapshot or paged flush
// has made its contents redundant. Called with s.mu held.
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

// replayTail replays the journal from the start (skipping epochs the
// restored state already covers) and truncates a torn final frame.
// Called with s.mu held.
func (s *Store) replayTail(n *shard.Network) error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	good, err := replayJournal(s.f, n, func(*shard.FinalBlock) { s.replayed.Inc() })
	if err != nil {
		return err
	}
	return s.truncateJournal(good)
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
