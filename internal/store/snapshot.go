package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// snapshotBatch is how many accounts ride in one MsgSnapshotAccounts
// frame, and how many entries in one MsgStateDelta frame of an
// incremental file; batching keeps frames small without a frame per
// record.
const snapshotBatch = 4096

// writeSnapshotFile makes dir/name durable: body is written to a temp
// file, which is fsynced, renamed into place, and the directory
// fsynced. It returns the file's size.
func writeSnapshotFile(dir, name string, body func(*bufio.Writer) error) (int64, error) {
	path := filepath.Join(dir, name)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = body(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	var size int64
	if info, serr := f.Stat(); serr == nil {
		size = info.Size()
	} else if err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

func writeHeader(w *bufio.Writer, n *shard.Network, cp shard.Checkpoint) error {
	hdr := wire.EncodeSnapshotHeader(&wire.SnapshotHeader{Checkpoint: cp, Root: n.StateRoot()})
	return wire.WriteFrame(w, wire.MsgSnapshotHeader, hdr)
}

// writeAccounts writes accs in batches and the trailer after them;
// stateRecords is the number of contract (full) or state-delta
// (incremental) frames written before.
func writeAccounts(w *bufio.Writer, stateRecords int, accs []wire.SnapshotAccount) error {
	for i := 0; i < len(accs); i += snapshotBatch {
		end := min(i+snapshotBatch, len(accs))
		if err := wire.WriteFrame(w, wire.MsgSnapshotAccounts, wire.EncodeSnapshotAccounts(accs[i:end])); err != nil {
			return err
		}
	}
	trailer := wire.EncodeSnapshotEnd(&wire.SnapshotEnd{
		Contracts: uint64(stateRecords), Accounts: uint64(len(accs)),
	})
	return wire.WriteFrame(w, wire.MsgSnapshotEnd, trailer)
}

// writeFull streams a full snapshot: header, every contract in address
// order, every account in address order (batched), trailer.
func writeFull(w *bufio.Writer, n *shard.Network, cp shard.Checkpoint) error {
	if err := writeHeader(w, n, cp); err != nil {
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
	n.Accounts.Range(func(addr chain.Address, acc chain.Account) bool {
		accs = append(accs, wire.SnapshotAccount{
			Addr: addr, Balance: acc.Balance, Nonce: acc.Nonce, IsContract: acc.IsContract,
		})
		return true
	})
	slices.SortFunc(accs, func(a, b wire.SnapshotAccount) int { return bytes.Compare(a.Addr[:], b.Addr[:]) })
	return writeAccounts(w, len(contracts), accs)
}

// writeIncremental streams an incremental snapshot: header, the epoch
// of the state it is written over, the dirty contract components, the
// dirty accounts, trailer.
func writeIncremental(w *bufio.Writer, n *shard.Network, cp shard.Checkpoint, since uint64, inc *incremental) error {
	if err := writeHeader(w, n, cp); err != nil {
		return err
	}
	base := wire.EncodeSnapshotSince(&wire.SnapshotSince{Epoch: since})
	if err := wire.WriteFrame(w, wire.MsgSnapshotSince, base); err != nil {
		return err
	}
	for _, d := range inc.deltas {
		payload, err := wire.EncodeStateDelta(d)
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(w, wire.MsgStateDelta, payload); err != nil {
			return err
		}
	}
	return writeAccounts(w, len(inc.deltas), inc.accounts)
}

// snapFile is one snapshot file, parsed. A full file holds contracts,
// an incremental one deltas over the state as of epoch since.
type snapFile struct {
	name        string
	hdr         *wire.SnapshotHeader
	incremental bool
	since       uint64
	contracts   []*wire.SnapshotContract
	deltas      []*chain.StateDelta
	accounts    []wire.SnapshotAccount
}

// readSnapshot parses one snapshot file completely before any of it is
// applied, so a truncated file can be rejected without half-restoring.
// Everything wrong with the file's contents is an ErrCorruptSnapshot.
func readSnapshot(dir string, ref snapshotRef) (*snapFile, error) {
	f, err := os.Open(filepath.Join(dir, ref.name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	corrupt := func(format string, args ...any) (*snapFile, error) {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, ref.name, fmt.Sprintf(format, args...))
	}
	r := bufio.NewReaderSize(f, 1<<20)
	typ, payload, err := wire.ReadFrame(r)
	if err != nil || typ != wire.MsgSnapshotHeader {
		return corrupt("missing header")
	}
	sf := &snapFile{name: ref.name}
	if sf.hdr, err = wire.DecodeSnapshotHeader(payload); err != nil {
		return corrupt("%v", err)
	}
	if sf.hdr.Checkpoint.Epoch != ref.epoch {
		return corrupt("header is of epoch %d", sf.hdr.Checkpoint.Epoch)
	}
	for first := true; ; first = false {
		typ, payload, err := wire.ReadFrame(r)
		if err != nil {
			return corrupt("no end record")
		}
		switch {
		case typ == wire.MsgSnapshotSince && first:
			since, err := wire.DecodeSnapshotSince(payload)
			if err != nil {
				return corrupt("%v", err)
			}
			if since.Epoch >= ref.epoch {
				return corrupt("extends epoch %d", since.Epoch)
			}
			sf.incremental, sf.since = true, since.Epoch
		case typ == wire.MsgSnapshotContract && !sf.incremental:
			c, err := wire.DecodeSnapshotContract(payload)
			if err != nil {
				return corrupt("%v", err)
			}
			sf.contracts = append(sf.contracts, c)
		case typ == wire.MsgStateDelta && sf.incremental:
			d, err := wire.DecodeStateDelta(payload)
			if err != nil {
				return corrupt("%v", err)
			}
			if !postValues(d) {
				return corrupt("state delta of contract %s is not post-values", d.Contract)
			}
			sf.deltas = append(sf.deltas, d)
		case typ == wire.MsgSnapshotAccounts:
			batch, err := wire.DecodeSnapshotAccounts(payload)
			if err != nil {
				return corrupt("%v", err)
			}
			sf.accounts = append(sf.accounts, batch...)
		case typ == wire.MsgSnapshotEnd:
			e, err := wire.DecodeSnapshotEnd(payload)
			if err != nil {
				return corrupt("%v", err)
			}
			state := len(sf.contracts) + len(sf.deltas)
			if e.Contracts != uint64(state) || e.Accounts != uint64(len(sf.accounts)) {
				return corrupt("trailer counts %d/%d, read %d/%d", e.Contracts, e.Accounts, state, len(sf.accounts))
			}
			return sf, nil
		default:
			return corrupt("unexpected %v record", typ)
		}
	}
}

// postValues reports whether d is what an incremental file may hold:
// values to install and entries to remove, no integer delta to add to
// whatever the state below happens to hold.
func postValues(d *chain.StateDelta) bool {
	for _, fd := range d.Fields {
		if fd.Whole != nil && (fd.Whole.Kind != chain.Overwrite || fd.Whole.Value == nil) {
			return false
		}
		for _, e := range fd.Entries {
			if e.Kind == chain.IntAdd || len(e.Keys) == 0 || (e.Kind == chain.Overwrite && e.Value == nil) {
				return false
			}
		}
	}
	return true
}

// cost is the size of an incremental file's body as incremental.cost
// counted it when the file was written.
func (sf *snapFile) cost() int {
	n := len(sf.accounts)
	for _, d := range sf.deltas {
		for _, fd := range d.Fields {
			if fd.Whole != nil {
				n += leaves(fd.Whole.Value)
			}
			for _, e := range fd.Entries {
				n += entryCost + leaves(e.Value)
			}
		}
	}
	return n
}

// apply writes the file's records over n's state: a full file replaces
// every contract's fields, an incremental one merges its post-values in;
// both put their accounts. The root trie is not touched — the caller
// rebuilds it once, after the last file.
func (sf *snapFile) apply(n *shard.Network) error {
	for _, c := range sf.contracts {
		if err := n.RestoreContractState(c.Addr, c.Fields); err != nil {
			return fmt.Errorf("store: snapshot %s: %w", sf.name, err)
		}
	}
	var undo chain.Undo // all or nothing is the caller's: a failed restore is abandoned
	for _, d := range sf.deltas {
		c := n.Contracts.Get(d.Contract)
		if c == nil {
			return fmt.Errorf("store: snapshot %s: %w %s", sf.name, shard.ErrUnknownContract, d.Contract)
		}
		st := c.Snapshot()
		if err := chain.MergeDeltas(st, []*chain.StateDelta{d}, &undo); err != nil {
			return fmt.Errorf("store: snapshot %s: %w", sf.name, err)
		}
		undo.Reset()
		c.ReplaceState(st)
	}
	for _, a := range sf.accounts {
		n.Accounts.Put(a.Addr, chain.Account{Balance: a.Balance, Nonce: a.Nonce, IsContract: a.IsContract})
	}
	return nil
}

// snapshotChain describes the snapshot files a state rests on: full
// (0 or 1) and incremental count them, cost is the size of the
// incremental ones (incremental.cost), and epoch is the state they
// describe: the newest file's, or genesis with none.
type snapshotChain struct {
	full, incremental, cost int
	epoch                   uint64
}

// restoredChain is the chain restoreChain applied, and what it left.
type restoredChain struct {
	snapshotChain
	// newest is the highest epoch a snapshot file of the directory is
	// named for, and stopped why the chain ended before that file: it was
	// unreadable, or does not extend the epoch reached. Recovery must get
	// past newest by other means — the journal — or fail with stopped.
	newest  uint64
	stopped error
	// unused names the snapshot files that are no part of the applied
	// chain: older than its full file, or at and after the stop.
	unused []string
}

// restoreChain loads dir's snapshot chain into n: the newest readable
// full file (the genesis n was provisioned with, when there is none),
// then every later incremental file in epoch order as long as each
// extends exactly the epoch reached; then one rebuild of the root trie,
// verified against the header of the last file applied. A file that
// cannot be applied ends the chain without an error — the journal may
// still cover it, and the caller checks that recovery got past the
// chain's newest — but a chain whose root does not verify is an error.
func restoreChain(dir string, n *shard.Network) (restoredChain, error) {
	sc := restoredChain{snapshotChain: snapshotChain{epoch: n.Checkpoint().Epoch}}
	snaps := snapshotsIn(dir)
	if len(snaps) == 0 {
		return sc, nil
	}
	sc.newest = snaps[len(snaps)-1].epoch
	files := make([]*snapFile, len(snaps))
	errs := make([]error, len(snaps))
	start := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		files[i], errs[i] = readSnapshot(dir, snaps[i])
		if errs[i] != nil && !errors.Is(errs[i], ErrCorruptSnapshot) {
			return sc, errs[i]
		}
		if files[i] != nil && !files[i].incremental {
			start = i
			break
		}
	}
	var last *snapFile
	end := start
	for ; end < len(snaps); end++ {
		sf := files[end]
		if sf == nil {
			sc.stopped = errs[end]
			break
		}
		if sf.incremental && sf.since != sc.epoch {
			sc.stopped = fmt.Errorf("%w: %s extends epoch %d, the chain is at epoch %d",
				ErrCorruptSnapshot, sf.name, sf.since, sc.epoch)
			break
		}
		if err := sf.apply(n); err != nil {
			return sc, err
		}
		if sf.incremental {
			sc.incremental++
			sc.cost += sf.cost()
		} else {
			sc.full++
		}
		sc.epoch = sf.hdr.Checkpoint.Epoch
		last = sf
	}
	for i, ref := range snaps {
		if i < start || i >= end {
			sc.unused = append(sc.unused, ref.name)
		}
	}
	if last != nil {
		n.RestoreCheckpoint(last.hdr.Checkpoint)
		n.RebuildStateRoots()
		if root := n.StateRoot(); root != last.hdr.Root {
			return sc, fmt.Errorf("%w: %s: restored root %s, header says %s",
				ErrCorruptSnapshot, last.name, root, last.hdr.Root)
		}
	}
	return sc, nil
}

// tmpSuffix marks a snapshot file still being written.
const tmpSuffix = ".tmp"

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
