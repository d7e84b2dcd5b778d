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

	"cosplit/internal/chain"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// snapshotBatch is how many accounts ride in one MsgSnapshotAccounts
// record, and how many components — entries, or fields written whole —
// in one MsgStateDelta record; batching keeps records small, whatever
// the size of the state, without a record per component.
const snapshotBatch = 4096

// putRecord writes one record of a snapshot file, a frame of type t.
type putRecord func(t wire.MsgType, payload []byte) error

// writeSnapshotFile makes dir/name durable: body puts its records in a
// temp file, as frames one after another, which is fsynced, renamed
// into place, and the directory fsynced. It returns the file's size.
func writeSnapshotFile(dir, name string, body func(putRecord) error) (int64, error) {
	path := filepath.Join(dir, name)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = body(func(t wire.MsgType, payload []byte) error { return wire.WriteFrame(w, t, payload) })
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

// writeAccounts writes accs in batches and the trailer after them;
// stateRecords is the number of state-delta records written before.
func writeAccounts(put putRecord, stateRecords int, accs []wire.SnapshotAccount) error {
	for i := 0; i < len(accs); i += snapshotBatch {
		end := min(i+snapshotBatch, len(accs))
		if err := put(wire.MsgSnapshotAccounts, wire.EncodeSnapshotAccounts(accs[i:end])); err != nil {
			return err
		}
	}
	return put(wire.MsgSnapshotEnd, wire.EncodeSnapshotEnd(&wire.SnapshotEnd{Contracts: uint64(stateRecords), Accounts: uint64(len(accs))}))
}

// writeFull writes a full snapshot, the incremental of every component
// over empty fields: header, every field of every contract written
// whole, contracts in address order, every account in address order
// (batched), trailer. It puts each state record as soon as it is
// complete and holds no more than one.
func writeFull(put putRecord, n *shard.Network, cp shard.Checkpoint) error {
	if err := put(wire.MsgSnapshotHeader, wire.EncodeSnapshotHeader(&wire.SnapshotHeader{Checkpoint: cp, Root: n.StateRoot()})); err != nil {
		return err
	}
	contracts := n.Contracts.All()
	slices.SortFunc(contracts, func(a, b *chain.Contract) int { return compareAddrs(a.Addr, b.Addr) })
	records := 0
	recs := stateRecords{put: func(payload []byte) error { records++; return put(wire.MsgStateDelta, payload) }}
	every := &dirtyField{whole: true}
	for _, c := range contracts {
		fields := c.Snapshot().Fields
		dirty := make(map[string]*dirtyField, len(fields))
		for f := range fields {
			dirty[f] = every
		}
		_ = recs.dirty(c.Addr, fields, dirty) // fails only on a field fields lacks; its put errors end in flush
	}
	if err := recs.flush(); err != nil {
		return err
	}
	accs := make([]wire.SnapshotAccount, 0, n.Accounts.Len())
	n.Accounts.Range(func(addr chain.Address, acc chain.Account) bool {
		accs = append(accs, wire.SnapshotAccount{
			Addr: addr, Balance: acc.Balance, Nonce: acc.Nonce, IsContract: acc.IsContract,
		})
		return true
	})
	slices.SortFunc(accs, func(a, b wire.SnapshotAccount) int { return bytes.Compare(a.Addr[:], b.Addr[:]) })
	return writeAccounts(put, records, accs)
}

// writeIncremental writes an incremental snapshot: header, the epoch of
// the state it is written over, the dirty contract components, the
// dirty accounts, trailer.
func writeIncremental(put putRecord, n *shard.Network, cp shard.Checkpoint, since uint64, inc *incremental) error {
	if err := put(wire.MsgSnapshotHeader, wire.EncodeSnapshotHeader(&wire.SnapshotHeader{Checkpoint: cp, Root: n.StateRoot()})); err != nil {
		return err
	}
	if err := put(wire.MsgSnapshotSince, wire.EncodeSnapshotSince(&wire.SnapshotSince{Epoch: since})); err != nil {
		return err
	}
	for _, payload := range inc.records {
		if err := put(wire.MsgStateDelta, payload); err != nil {
			return err
		}
	}
	return writeAccounts(put, len(inc.records), inc.accounts)
}

// snapFile is one snapshot file, parsed: post-value state deltas over
// empty fields (a full file) or over the state as of epoch since (an
// incremental one), and accounts.
type snapFile struct {
	name        string
	hdr         *wire.SnapshotHeader
	incremental bool
	since       uint64
	deltas      []*chain.StateDelta
	accounts    []wire.SnapshotAccount
}

// readSnapshot parses one snapshot file, or a state image, named name
// in errors, completely before any of it is applied, so a truncated
// file can be rejected without half-restoring. Everything wrong with
// the contents is an ErrCorruptSnapshot.
func readSnapshot(r io.Reader, name string) (*snapFile, error) {
	corrupt := func(format string, args ...any) (*snapFile, error) {
		return nil, fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, name, fmt.Sprintf(format, args...))
	}
	typ, payload, err := wire.ReadFrame(r)
	if err != nil || typ != wire.MsgSnapshotHeader {
		return corrupt("missing header")
	}
	sf := &snapFile{name: name}
	if sf.hdr, err = wire.DecodeSnapshotHeader(payload); err != nil {
		return corrupt("%v", err)
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
			if since.Epoch >= sf.hdr.Checkpoint.Epoch {
				return corrupt("extends epoch %d", since.Epoch)
			}
			sf.incremental, sf.since = true, since.Epoch
		case typ == wire.MsgStateDelta:
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
			if e.Contracts != uint64(len(sf.deltas)) || e.Accounts != uint64(len(sf.accounts)) {
				return corrupt("trailer counts %d/%d, read %d/%d", e.Contracts, e.Accounts, len(sf.deltas), len(sf.accounts))
			}
			return sf, nil
		default:
			return corrupt("unexpected %v record", typ)
		}
	}
}

// readSnapshotFile reads the snapshot file ref of dir; its header must
// be of the epoch its name carries.
func readSnapshotFile(dir string, ref snapshotRef) (*snapFile, error) {
	f, err := os.Open(filepath.Join(dir, ref.name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sf, err := readSnapshot(bufio.NewReaderSize(f, 1<<20), ref.name)
	if err == nil && sf.hdr.Checkpoint.Epoch != ref.epoch {
		return nil, fmt.Errorf("%w: %s: header is of epoch %d", ErrCorruptSnapshot, ref.name, sf.hdr.Checkpoint.Epoch)
	}
	return sf, err
}

// postValues reports whether d is what a snapshot file may hold:
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

// cost is the size of an incremental file's body as stateRecords
// counted it when the file was written: an account costs one, a field
// written whole the leaves of its value — the entries after its Whole
// record, or one for a scalar or an empty map — and any other entry its
// value's leaves, as it would in a full file (incremental.cost).
func (sf *snapFile) cost() int {
	n := len(sf.accounts)
	whole := make(map[string]int) // by contract and name, the leaves of each field written whole
	for _, d := range sf.deltas {
		for _, fd := range d.Fields {
			k := string(d.Contract[:]) + fd.Name
			if fd.Whole != nil {
				whole[k] = 0
			}
			for _, e := range fd.Entries {
				if w, ok := whole[k]; ok {
					whole[k] = w + leaves(e.Value)
				} else {
					n += leaves(e.Value)
				}
			}
		}
	}
	for _, w := range whole {
		n += max(w, 1)
	}
	return n
}

// apply writes the file's post-values into n's state — a full file
// writes every field of every contract whole, an incremental one what
// changed; a field the contract does not have fails it — and puts the
// file's accounts. The root trie is not touched — the caller rebuilds
// it once, after the last file.
func (sf *snapFile) apply(n *shard.Network) error {
	var cks []string
	for _, d := range sf.deltas {
		c := n.Contracts.Get(d.Contract)
		if c == nil {
			return fmt.Errorf("store: snapshot %s: %w %s", sf.name, shard.ErrUnknownContract, d.Contract)
		}
		var err error
		if cks, err = writePostValues(c.Snapshot(), d, cks); err != nil {
			return fmt.Errorf("store: snapshot %s: contract %s: %w", sf.name, d.Contract, err)
		}
	}
	for _, a := range sf.accounts {
		n.Accounts.Put(a.Addr, chain.Account{Balance: a.Balance, Nonce: a.Nonce, IsContract: a.IsContract})
	}
	return nil
}

// writePostValues writes d's post-values into st in place: a field
// written whole is set to its value, and an entry is set, or deleted,
// at its keypath, the map levels on the way created for a set
// (eval.MapAt). The values are st's from here on: a record is decoded
// for this write alone. cks is scratch for the entries' canonical keys,
// returned for reuse. The decoder has refused a record that writes a
// component twice (chain.StateDelta is canonical).
func writePostValues(st *eval.MemState, d *chain.StateDelta, cks []string) ([]string, error) {
	for _, fd := range d.Fields {
		v, ok := st.Fields[fd.Name]
		if !ok {
			return cks, fmt.Errorf("unknown field %s", fd.Name)
		}
		if fd.Whole != nil {
			v = fd.Whole.Value
			st.Fields[fd.Name] = v
		}
		if len(fd.Entries) == 0 {
			continue
		}
		root, ok := v.(*value.Map)
		if !ok {
			return cks, fmt.Errorf("field %s is not a map", fd.Name)
		}
		for _, e := range fd.Entries {
			cks = cks[:0]
			if len(e.Keys) == 1 {
				cks = append(cks, e.Keypath) // a single key's keypath is its canonical key
			} else {
				for _, k := range e.Keys {
					cks = append(cks, value.CanonicalKey(k))
				}
			}
			m, err := eval.MapAt(root, cks, e.Kind == chain.Overwrite)
			switch {
			case err != nil:
				return cks, fmt.Errorf("field %s: %w", fd.Name, err)
			case e.Kind == chain.Overwrite:
				m.SetCK(cks[len(cks)-1], e.Value)
			case m != nil:
				m.DeleteCK(cks[len(cks)-1])
			}
		}
	}
	return cks, nil
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
		files[i], errs[i] = readSnapshotFile(dir, snaps[i])
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
		return sc, last.settle(n)
	}
	return sc, nil
}

// settle closes a restore whose last file is sf: it restores sf's
// checkpoint, rebuilds the root trie once from the state written and
// verifies it against sf's header.
func (sf *snapFile) settle(n *shard.Network) error {
	n.RestoreCheckpoint(sf.hdr.Checkpoint)
	n.RebuildStateRoots()
	if root := n.StateRoot(); root != sf.hdr.Root {
		return fmt.Errorf("%w: %s: restored root %s, header says %s", ErrCorruptSnapshot, sf.name, root, sf.hdr.Root)
	}
	return nil
}

// Image writes n's live state as a state image: the records of a full
// snapshot file at n's checkpoint, byte for byte, written by the code
// that writes snapshot files. It hands each record, one frame, to each
// as soon as it is encoded, from the header to the trailer, and stops
// at the first error each returns. It costs what a full file costs. The
// committee answers with one a replica its journal no longer covers.
func Image(n *shard.Network, each func(record []byte) error) error {
	return writeFull(func(t wire.MsgType, payload []byte) error {
		return each(wire.EncodeFrame(t, payload))
	}, n, n.Checkpoint())
}

// ApplyImage writes a state image — Image's records, concatenated —
// over n through the reader recovery uses, and reports whether it did.
// n must come from the genesis the image's network came from, at any
// epoch below the image's: an image writes every field whole and puts
// every account, and committed state never deletes an account. An
// image that does not parse — a record or the trailer missing — or is
// at or below n's epoch leaves n untouched; once it is written there is
// no undo, so an image whose root does not verify leaves n on no
// committed state.
func ApplyImage(n *shard.Network, image []byte) (applied bool, err error) {
	sf, err := readSnapshot(bytes.NewReader(image), "state image")
	switch {
	case err != nil:
		return false, err
	case sf.incremental:
		return false, fmt.Errorf("%w: state image is incremental", ErrCorruptSnapshot)
	case sf.hdr.Checkpoint.Epoch <= n.Epoch:
		return false, nil
	}
	if err := sf.apply(n); err != nil {
		return true, err
	}
	return true, sf.settle(n)
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
