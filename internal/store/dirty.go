package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// dirtySet names every state component the blocks journaled since the
// newest snapshot file wrote: account addresses, and per contract and
// field either the whole field or the keypaths of its written entries.
// It holds keys only — the key values an entry delta already carries —
// never a state value, a block or a receipt: the values are read from
// canonical state when the set is written out.
type dirtySet struct {
	accounts  map[chain.Address]struct{}
	contracts map[chain.Address]map[string]*dirtyField
	// cost is what writing the set out will cost at the least, in the
	// fold rule's unit (see incremental.cost): one per account and per
	// whole field, entryCost per entry.
	cost int
}

// entryCost is what an entry record of an incremental file costs
// before its value is counted, in leaves of a full file: the record
// carries its keypath beside its keys and the delta framing, about as
// many bytes again as the entry takes in a full file (a token balance
// is 80 bytes in an incremental file, 32 in a full one).
const entryCost = 1

// dirtyField is one contract field's written components. A whole-field
// write covers every entry of the field, so it drops the entries
// recorded before it and ignores the ones after.
type dirtyField struct {
	whole   bool
	entries map[string][]value.Value // keypath -> its keys
}

func (d *dirtySet) reset() { *d = dirtySet{} }

// add records the keys of a committed block's four delta sets.
func (d *dirtySet) add(fb *shard.FinalBlock) {
	d.addDeltas(fb.Deltas)
	d.addAccounts(fb.Accounts)
	d.addDeltas(fb.DSDeltas)
	d.addAccounts(fb.DSAccounts)
}

func (d *dirtySet) addAccounts(ad *chain.AccountDelta) {
	if ad == nil {
		return
	}
	if d.accounts == nil {
		d.accounts = make(map[chain.Address]struct{})
	}
	before := len(d.accounts)
	for addr := range ad.BalanceDeltas {
		d.accounts[addr] = struct{}{}
	}
	for addr := range ad.Nonces {
		d.accounts[addr] = struct{}{}
	}
	d.cost += len(d.accounts) - before
}

func (d *dirtySet) addDeltas(deltas []*chain.StateDelta) {
	for _, sd := range deltas {
		fields := d.contracts[sd.Contract]
		if fields == nil {
			if d.contracts == nil {
				d.contracts = make(map[chain.Address]map[string]*dirtyField)
			}
			fields = make(map[string]*dirtyField)
			d.contracts[sd.Contract] = fields
		}
		for f, fd := range sd.Fields {
			df := fields[f]
			if df == nil {
				df = &dirtyField{}
				fields[f] = df
			}
			if df.whole {
				continue
			}
			whole := fd.Whole != nil
			for kp, e := range fd.Entries {
				if whole = whole || len(e.Keys) == 0; whole {
					break // an entry without keys is the field itself
				}
				if _, seen := df.entries[kp]; seen {
					continue
				}
				if df.entries == nil {
					df.entries = make(map[string][]value.Value)
				}
				df.entries[kp] = e.Keys
				d.cost += entryCost + 1
			}
			if whole {
				d.cost += 1 - (entryCost+1)*len(df.entries)
				df.whole, df.entries = true, nil
			}
		}
	}
}

// incremental is the body of an incremental snapshot file: the
// post-state of every dirty component. Its values alias canonical
// state and are only good until the next epoch commits.
type incremental struct {
	// deltas hold the contract components as Overwrite and Delete
	// entries (or whole fields), contracts in address order, cut into
	// records of at most snapshotBatch entries.
	deltas   []*chain.StateDelta
	accounts []wire.SnapshotAccount // in address order
	// cost is the size of the body in the unit the fold rule compares
	// with the state's leaf count, the leaves of a full file: one per
	// account, the leaves a written value renders to — a map written
	// whole counts every leaf below it — and entryCost more per entry.
	cost int
}

// post reads the dirty components' current values out of n's quiescent
// canonical state.
func (d *dirtySet) post(n *shard.Network) (*incremental, error) {
	inc := &incremental{}
	addrs := make([]chain.Address, 0, len(d.contracts))
	for addr := range d.contracts {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, compareAddrs)
	for _, addr := range addrs {
		c := n.Contracts.Get(addr)
		if c == nil {
			return nil, fmt.Errorf("%w: contract %s", shard.ErrUnknownContract, addr)
		}
		if err := inc.addContract(addr, c.Snapshot().Fields, d.contracts[addr]); err != nil {
			return nil, err
		}
	}

	addrs = addrs[:0]
	for addr := range d.accounts {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, compareAddrs)
	inc.accounts = make([]wire.SnapshotAccount, 0, len(addrs))
	// A nonce bump names its sender whether or not the account exists;
	// only existing accounts have a post-state. The balances are the live
	// ones, as in a full file: nothing commits until the file is written.
	n.Accounts.Each(addrs, func(addr chain.Address, acc chain.Account) {
		inc.accounts = append(inc.accounts, wire.SnapshotAccount{
			Addr: addr, Balance: acc.Balance, Nonce: acc.Nonce, IsContract: acc.IsContract,
		})
	})
	inc.cost += len(inc.accounts)
	return inc, nil
}

// compareAddrs orders addresses as bytes.Compare does, deciding all but
// ties on the first eight bytes as one integer.
func compareAddrs(a, b chain.Address) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8])); c != 0 {
		return c
	}
	return bytes.Compare(a[8:], b[8:])
}

// addContract appends one contract's dirty components, fields and
// keypaths in sorted order, starting a new record every snapshotBatch
// entries.
func (inc *incremental) addContract(addr chain.Address, state map[string]value.Value, dirty map[string]*dirtyField) error {
	var cur *chain.StateDelta
	size := 0
	// fieldDelta is where the next component of field f goes, of which
	// the field has `more` left to write.
	fieldDelta := func(f string, more int) *chain.FieldDelta {
		if cur == nil || size == snapshotBatch {
			cur = &chain.StateDelta{Contract: addr, Fields: make(map[string]*chain.FieldDelta)}
			inc.deltas = append(inc.deltas, cur)
			size = 0
		}
		fd := cur.Fields[f]
		if fd == nil {
			fd = &chain.FieldDelta{Entries: make(map[string]chain.EntryDelta, min(more, snapshotBatch-size))}
			cur.Fields[f] = fd
		}
		size++
		return fd
	}

	fields := make([]string, 0, len(dirty))
	for f := range dirty {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	type entry struct {
		kp   string
		keys []value.Value
	}
	var entries []entry
	for _, f := range fields {
		v, ok := state[f]
		if !ok {
			return fmt.Errorf("store: contract %s has no field %q", addr, f)
		}
		df := dirty[f]
		if df.whole {
			fieldDelta(f, 0).Whole = &chain.EntryDelta{Kind: chain.Overwrite, Value: v}
			inc.cost += leaves(v)
			continue
		}
		entries = entries[:0]
		for kp, keys := range df.entries {
			entries = append(entries, entry{kp, keys})
		}
		slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.kp, b.kp) })
		// Empty maps written in place of their deleted entries, so that
		// several entries deleted under one of them write it once.
		var emptied map[string]bool
		for i, de := range entries {
			kp := de.kp
			e := postEntry(v, kp, de.keys)
			if len(e.Keys) != len(de.keys) {
				kp = chain.Keypath(e.Keys)
				if _, own := df.entries[kp]; own || emptied[kp] {
					continue
				}
				if emptied == nil {
					emptied = make(map[string]bool)
				}
				emptied[kp] = true
			}
			fieldDelta(f, len(entries)-i).Entries[kp] = e
			inc.cost += entryCost + leaves(e.Value)
		}
	}
	return nil
}

// postEntry is the snapshot record for the dirty entry keys (keypath
// kp) of the map field whose current value is field. An entry that
// exists is an Overwrite with its value. An entry that is gone is a
// Delete — unless the deepest map surviving on its path is a nested one
// that the deletes left empty: that map is part of the state (the root
// commits to it with a marker leaf, see trie.TouchEntry) and may not
// exist in the state the file is applied over, where a Delete would
// find nothing and leave nothing. Then the record is an Overwrite of
// that ancestor with the empty map, which creates it and whatever leads
// to it. A surviving ancestor that is not empty needs no record: either
// it was in the older state too, or everything in it was written since
// and so is dirty itself and recreates it.
func postEntry(field value.Value, kp string, keys []value.Value) chain.EntryDelta {
	m, _ := field.(*value.Map)
	for depth := 0; m != nil; depth++ {
		var v value.Value
		var ok bool
		if len(keys) == 1 {
			v, ok = m.GetCK(kp) // a single key's keypath is its canonical key
		} else {
			v, ok = m.Get(keys[depth])
		}
		switch {
		case ok && depth == len(keys)-1:
			return chain.EntryDelta{Kind: chain.Overwrite, Keys: keys, Value: v}
		case ok:
			m, _ = v.(*value.Map)
		case depth > 0 && m.Len() == 0:
			return chain.EntryDelta{Kind: chain.Overwrite, Keys: keys[:depth], Value: m}
		default:
			m = nil
		}
	}
	return chain.EntryDelta{Kind: chain.Delete, Keys: keys}
}

// leaves is the number of root-trie leaves v renders to: one per
// scalar and per empty map (see trie.StateRoots). A deleted entry's nil
// counts as one, for its record.
func leaves(v value.Value) int {
	m, ok := v.(*value.Map)
	if !ok || m.Len() == 0 {
		return 1
	}
	n := 0
	for _, child := range m.Entries {
		n += leaves(child)
	}
	return n
}
