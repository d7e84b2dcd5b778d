package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
)

// dirtySet names every state component the blocks journaled since the
// newest snapshot file wrote: account addresses, and per contract and
// field either the whole field or the keypaths of its written entries.
// It holds names only — never a state value, a key value, a block or a
// receipt: the keys are rebuilt from the keypaths and the values read
// from canonical state when the set is written out.
type dirtySet struct {
	accounts  map[chain.Address]struct{}
	contracts map[chain.Address]map[string]*dirtyField
	// cost is what writing the set out will cost at the least, in the
	// fold rule's unit (see incremental.cost): one per account, per
	// whole field and per entry.
	cost int
}

// dirtyField is one contract field's written components. A whole-field
// write covers every entry of the field, so it drops the entries
// recorded before it and ignores the ones after.
type dirtyField struct {
	whole bool
	// entries holds each written entry's keypath. Its keys are rebuilt
	// from the keypath when the set is written out (keysOf), so an
	// entry costs the set its keypath alone.
	entries map[string]struct{}
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
		for _, fd := range sd.Fields {
			df := fields[fd.Name]
			if df == nil {
				df = &dirtyField{}
				fields[fd.Name] = df
			}
			if df.whole {
				continue
			}
			whole := fd.Whole != nil
			for _, e := range fd.Entries {
				if whole = whole || len(e.Keys) == 0; whole {
					break // an entry without keys is the field itself
				}
				if _, seen := df.entries[e.Keypath]; seen {
					continue
				}
				if df.entries == nil {
					df.entries = make(map[string]struct{})
				}
				df.entries[e.Keypath] = struct{}{}
				d.cost++
			}
			if whole {
				d.cost += 1 - len(df.entries)
				df.whole, df.entries = true, nil
			}
		}
	}
}

// incremental is the body of an incremental snapshot file: the
// post-state of every dirty component, as read when it was built.
type incremental struct {
	records  [][]byte               // the contract components' state records, encoded (stateRecords)
	accounts []wire.SnapshotAccount // in address order
	// cost is the size of the body in the unit the fold rule compares
	// with the state's leaf count, the leaves of a full file: one per
	// account and the leaves a written value renders to — a map written
	// whole counts every leaf below it. An entry costs no more than its
	// value's leaves: a full file writes each map leaf as the same entry
	// record, keypath and all, so an entry is a leaf's worth of bytes in
	// either kind of file.
	cost int
}

// post reads the dirty components' current values out of n's quiescent
// canonical state.
func (d *dirtySet) post(n *shard.Network) (*incremental, error) {
	inc := &incremental{}
	recs := stateRecords{put: func(payload []byte) error {
		inc.records = append(inc.records, payload)
		return nil
	}}
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
		if err := recs.dirty(addr, c.Snapshot().Fields, d.contracts[addr]); err != nil {
			return nil, err
		}
	}
	if err := recs.flush(); err != nil {
		return nil, err
	}
	inc.cost = recs.cost

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

// stateRecords is the one writer of contract state records, for both
// kinds of snapshot file: it cuts the post-values it is given into
// MsgStateDelta records of one contract and at most snapshotBatch
// components each — an entry, or a field written whole — and hands each
// record to put, encoded, once it is complete. Records are canonical
// deltas (chain.StateDelta): fields and their entries arrive in the
// order they are written, which is theirs. The first error ends the
// writing and stays in err; cost counts what was written in the fold
// rule's unit (see incremental.cost).
type stateRecords struct {
	put func(payload []byte) error
	err error
	// cur is the record being filled and size its components. Its
	// fields' entries are runs of entries, the last field's at its end;
	// the next record reuses both slices.
	cur     chain.StateDelta
	entries []chain.EntryDelta
	size    int
	cost    int
}

// component is where the next component of contract addr's field f
// goes; a contract's fields come in name order. It puts the current
// record first when that is full or of another contract.
func (r *stateRecords) component(addr chain.Address, f string) *chain.FieldDelta {
	if r.size == snapshotBatch || (r.size > 0 && r.cur.Contract != addr) {
		_ = r.flush() // an error stays in err and ends the writing
	}
	r.cur.Contract = addr
	if n := len(r.cur.Fields); n == 0 || r.cur.Fields[n-1].Name != f {
		r.cur.Fields = append(r.cur.Fields, chain.FieldDelta{Name: f})
	}
	r.size++
	return &r.cur.Fields[len(r.cur.Fields)-1]
}

// entry adds e, an entry of contract addr's field f, to the record.
func (r *stateRecords) entry(addr chain.Address, f string, e chain.EntryDelta) {
	fd := r.component(addr, f)
	n := len(fd.Entries)
	r.entries = append(r.entries, e)
	fd.Entries = r.entries[len(r.entries)-n-1:]
}

// flush puts the current record, if it holds anything, and reports err.
func (r *stateRecords) flush() error {
	if r.size > 0 && r.err == nil {
		var payload []byte
		if payload, r.err = wire.EncodeStateDelta(&r.cur); r.err == nil {
			r.err = r.put(payload)
		}
	}
	r.cur.Fields, r.entries, r.size = r.cur.Fields[:0], r.entries[:0], 0
	return r.err
}

// whole writes contract addr's field f whole, with value v: a scalar or
// an empty map as one Whole Overwrite, any other map as a Whole
// Overwrite with the empty map and then its leaves as Overwrite entries
// (an empty nested map is a leaf), so no record grows with the map. It
// costs the leaves v renders to.
func (r *stateRecords) whole(addr chain.Address, f string, v value.Value) {
	whole := &chain.EntryDelta{Kind: chain.Overwrite, Value: v}
	r.component(addr, f).Whole = whole
	if m, ok := v.(*value.Map); ok && m.Len() > 0 {
		whole.Value = value.NewMap(m.KeyType, m.ValType)
		r.leaves(addr, f, m, nil, "")
	} else {
		r.cost++
	}
}

// leaves writes the leaves of the non-empty map m, reached from field f
// by keys (keypath kp), as Overwrite entries, walking each level in
// canonical key order, which is keypath order.
func (r *stateRecords) leaves(addr chain.Address, f string, m *value.Map, keys []value.Value, kp string) {
	type entry struct {
		ck string
		v  value.Value
	}
	entries := make([]entry, 0, m.Len())
	for ck, v := range m.Entries {
		entries = append(entries, entry{ck, v})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.ck, b.ck) })
	for _, e := range entries {
		if r.err != nil {
			return
		}
		path := append(keys[:len(keys):len(keys)], m.Key(e.ck))
		ekp := e.ck // a single key's keypath is its canonical key
		if len(keys) > 0 {
			ekp = kp + chain.KeypathSep + e.ck
		}
		if inner, ok := e.v.(*value.Map); ok && inner.Len() > 0 {
			r.leaves(addr, f, inner, path, ekp)
			continue
		}
		r.entry(addr, f, chain.EntryDelta{Kind: chain.Overwrite, Keypath: ekp, Keys: path, Value: e.v})
		r.cost++
	}
}

// dirty writes contract addr's dirty components, fields and keypaths in
// sorted order: a field written whole as whole does, an entry as its
// post-value (postEntry). It fails only on a field the state lacks.
func (r *stateRecords) dirty(addr chain.Address, state map[string]value.Value, dirty map[string]*dirtyField) error {
	fields := make([]string, 0, len(dirty))
	for f := range dirty {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	var keypaths []string
	for _, f := range fields {
		v, ok := state[f]
		if !ok {
			return fmt.Errorf("store: contract %s has no field %q", addr, f)
		}
		df := dirty[f]
		if df.whole {
			r.whole(addr, f, v)
			continue
		}
		keypaths = keypaths[:0]
		for kp := range df.entries {
			keypaths = append(keypaths, kp)
		}
		sort.Strings(keypaths)
		// Empty maps written in place of their deleted entries, so that
		// several entries deleted under one of them write it once.
		var emptied map[string]bool
		for _, kp := range keypaths {
			keys, err := keysOf(v, kp)
			if err != nil {
				return fmt.Errorf("store: contract %s field %q: %w", addr, f, err)
			}
			e := postEntry(v, kp, keys)
			if len(e.Keys) != len(keys) {
				if _, own := df.entries[e.Keypath]; own || emptied[e.Keypath] {
					continue
				}
				if emptied == nil {
					emptied = make(map[string]bool)
				}
				emptied[e.Keypath] = true
			}
			r.entry(addr, f, e)
			r.cost += leaves(e.Value)
		}
	}
	return nil
}

// keysOf rebuilds the keys of the entry at keypath kp of the map field
// whose value is field, level by level from the field's key and value
// types: no canonical key holds the keypath separator, so kp splits
// into its keys' canonical forms.
func keysOf(field value.Value, kp string) ([]value.Value, error) {
	m, ok := field.(*value.Map)
	if !ok {
		return nil, errors.New("entries written to a field that is not a map")
	}
	kt, vt := m.KeyType, m.ValType
	var keys []value.Value
	for {
		ck, rest, deeper := strings.Cut(kp, chain.KeypathSep)
		keys = append(keys, value.KeyOf(kt, ck))
		if !deeper {
			return keys, nil
		}
		mt, ok := vt.(ast.MapType)
		if !ok {
			return nil, errors.New("a keypath runs past the map's depth")
		}
		kt, vt, kp = mt.Key, mt.Val, rest
	}
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
			return chain.EntryDelta{Kind: chain.Overwrite, Keypath: kp, Keys: keys, Value: v}
		case ok:
			m, _ = v.(*value.Map)
		case depth > 0 && m.Len() == 0:
			return chain.EntryDelta{Kind: chain.Overwrite, Keypath: chain.Keypath(keys[:depth]), Keys: keys[:depth], Value: m}
		default:
			m = nil
		}
	}
	return chain.EntryDelta{Kind: chain.Delete, Keypath: kp, Keys: keys}
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
