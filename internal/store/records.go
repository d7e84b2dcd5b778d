package store

import (
	"slices"
	"strings"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/wire"
)

// stateRecords is the one writer of contract state records, for
// snapshot files and state images alike: it cuts the post-values it is
// given into MsgStateDelta records of one contract and at most
// snapshotBatch components each — an entry, or a field written whole —
// and hands each record to put, encoded, once it is complete. Records
// are canonical deltas (chain.StateDelta): fields and their entries
// arrive in the order they are written, which is theirs. The first
// error ends the writing and stays in err.
type stateRecords struct {
	put func(payload []byte) error
	err error
	// cur is the record being filled and size its components. Its
	// fields' entries are runs of entries, the last field's at its end;
	// the next record reuses both slices.
	cur     chain.StateDelta
	entries []chain.EntryDelta
	size    int
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
// (an empty nested map is a leaf), so no record grows with the map.
func (r *stateRecords) whole(addr chain.Address, f string, v value.Value) {
	whole := &chain.EntryDelta{Kind: chain.Overwrite, Value: v}
	r.component(addr, f).Whole = whole
	if m, ok := v.(*value.Map); ok && m.Len() > 0 {
		whole.Value = value.NewMap(m.KeyType, m.ValType)
		r.leaves(addr, f, m, nil, "")
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
	}
}
