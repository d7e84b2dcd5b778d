package chain

import (
	"fmt"
	"math/big"
	"slices"
	"strings"

	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// DeltaKind classifies a single state-delta entry.
type DeltaKind int

// Delta entry kinds. IntAdd carries a signed integer delta to be added
// at merge time (the IntMerge join); Overwrite and Delete carry the
// final value of a disjointly-owned component (OwnOverwrite).
const (
	Overwrite DeltaKind = iota
	IntAdd
	Delete
)

func (k DeltaKind) String() string {
	switch k {
	case IntAdd:
		return "IntAdd"
	case Delete:
		return "Delete"
	default:
		return "Overwrite"
	}
}

// EntryDelta is the delta for one map entry, or for a field written
// whole.
type EntryDelta struct {
	Kind DeltaKind
	// Keypath is Keypath(Keys): the entry's name in its field, by which
	// a FieldDelta orders its entries. It is empty on a Whole delta.
	Keypath string
	Keys    []value.Value
	Value   value.Value // Overwrite
	Delta   *big.Int    // IntAdd
}

// FieldDelta is the delta for one contract field.
type FieldDelta struct {
	Name string
	// Whole is set when the entire field was written; Entries holds
	// per-entry map writes, in strictly increasing Keypath order.
	Whole   *EntryDelta
	Entries []EntryDelta
}

// StateDelta is a shard's per-contract state contribution for an epoch
// (the SD in Fig. 10). It is canonical: Fields are in strictly
// increasing Name order and each field's Entries in strictly increasing
// Keypath order, each entry's Keypath that of its Keys. Whoever builds
// a delta puts it in that order once (ExtractDelta, the store's record
// writer); the wire decoder refuses a delta that is not, so the merge,
// the encoder and every other reader iterate and never sort.
type StateDelta struct {
	Contract Address
	Shard    int
	Fields   []FieldDelta
}

// Empty reports whether the delta carries no changes.
func (d *StateDelta) Empty() bool { return len(d.Fields) == 0 }

// Size returns the number of changed components.
func (d *StateDelta) Size() int {
	n := 0
	for i := range d.Fields {
		if d.Fields[i].Whole != nil {
			n++
		}
		n += len(d.Fields[i].Entries)
	}
	return n
}

// String renders the delta for debugging.
func (d *StateDelta) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "delta[%s shard=%d]{", d.Contract, d.Shard)
	for _, fd := range d.Fields {
		if fd.Whole != nil {
			fmt.Fprintf(&sb, " %s:%s", fd.Name, fd.Whole.Kind)
		}
		for _, e := range fd.Entries {
			fmt.Fprintf(&sb, " %s[%q]:%s", fd.Name, e.Keypath, e.Kind)
		}
	}
	sb.WriteString(" }")
	return sb.String()
}

// intOf extracts a big.Int from an integer value.
func intOf(v value.Value) (*big.Int, bool) {
	iv, ok := v.(value.Int)
	if !ok {
		return nil, false
	}
	return iv.V, true
}

// ExtractDelta diffs the overlay against its base, producing a state
// delta. Fields with an IntMerge join contribute signed integer deltas;
// all other writes contribute overwrites of the final values. The
// overlay's base must be the epoch-start state the delta is relative to.
// The delta is canonical; a field is written whole or by entries, never
// both (StoreField drops the entry writes, and later ones go into the
// whole value).
func (o *Overlay) ExtractDelta(contract Address, shard int, joins map[string]signature.Join) (*StateDelta, error) {
	d := &StateDelta{Contract: contract, Shard: shard, Fields: make([]FieldDelta, 0, len(o.scalars)+len(o.mapWrites))}
	// Values flow into the delta by reference: every apply sink
	// (applyWhole, applyEntry) copies before mutating canonical state,
	// and overlay values are never mutated in place, so the extra
	// defensive copy here only cost allocations.
	for f, v := range o.scalars {
		whole := EntryDelta{Kind: Overwrite, Value: v}
		if joins[f] == signature.IntMerge {
			newInt, ok1 := intOf(v)
			baseVal, err := o.base.LoadField(f)
			if err != nil {
				return nil, err
			}
			if oldInt, ok2 := intOf(baseVal); ok1 && ok2 {
				whole = EntryDelta{Kind: IntAdd, Delta: new(big.Int).Sub(newInt, oldInt)}
			}
		}
		d.Fields = append(d.Fields, FieldDelta{Name: f, Whole: &whole})
	}
	// A single-key entry's keypath is its canonical key, so the base
	// lookup reuses it instead of re-canonicalising the key per entry.
	var ckBuf [4]string
	for f, writes := range o.mapWrites {
		entries := make([]EntryDelta, 0, len(writes))
		for kp, e := range writes {
			ed := EntryDelta{Kind: Overwrite, Keypath: kp, Keys: e.keys, Value: e.val}
			newInt, isInt := intOf(e.val)
			switch {
			case e.deleted:
				ed.Kind = Delete
			case joins[f] == signature.IntMerge && isInt:
				var cks []string
				if len(e.keys) == 1 {
					cks = append(ckBuf[:0], kp)
				} else {
					cks = eval.CanonicalKeys(ckBuf[:0], e.keys)
				}
				bv, found, err := o.base.MapGet(f, cks, e.keys)
				if err != nil {
					return nil, err
				}
				old := new(big.Int)
				if found {
					if oi, ok := intOf(bv); ok {
						old = oi
					}
				}
				ed = EntryDelta{Kind: IntAdd, Keypath: kp, Keys: e.keys, Delta: new(big.Int).Sub(newInt, old)}
			}
			entries = append(entries, ed)
		}
		SortEntries(entries)
		d.Fields = append(d.Fields, FieldDelta{Name: f, Entries: entries})
	}
	slices.SortFunc(d.Fields, func(a, b FieldDelta) int { return strings.Compare(a.Name, b.Name) })
	return d, nil
}

// SortEntries puts entries in keypath order, the order a FieldDelta
// holds them in.
func SortEntries(entries []EntryDelta) {
	slices.SortFunc(entries, func(a, b EntryDelta) int { return strings.Compare(a.Keypath, b.Keypath) })
}

// ConflictError reports two shards writing the same disjointly-owned
// component in one epoch — a dispatch invariant violation.
type ConflictError struct {
	Contract Address
	Field    string
	Keypath  string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("merge conflict on %s.%s[%q]", e.Contract, e.Field, e.Keypath)
}

// OverflowError reports an integer overflow produced by joining deltas
// that individually fit (the Sec. 6 integer-overflow discussion).
type OverflowError struct {
	Contract Address
	Field    string
	Keypath  string
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("integer overflow merging %s.%s[%q]", e.Contract, e.Field, e.Keypath)
}

// Undo is the log of one block: what every state component and every
// account row held before the block's commit phases wrote it, in write
// order. MergeDeltas and Accounts.Apply append to it and never read
// it; the caller that owns the block replays it with Rollback if any
// phase, or the check after them, fails, or drops it with Reset once
// the block has committed. The zero value is an empty log, and one log
// is meant to be reused block after block.
//
// Logged values are the canonical values themselves, not copies: the
// merge installs a fresh value beside the old one and never mutates a
// value it replaces, so putting the old one back restores the state
// exactly.
type Undo struct {
	ops  []undoOp
	accs []accountOp
}

// undoOp is one overwritten component: a whole field (st set) or one
// slot of a map (m set). prev == nil means the slot did not exist.
type undoOp struct {
	st   *eval.MemState
	m    *value.Map
	name string // field name, or the slot's canonical key
	prev value.Value
}

// accountOp is one changed account row; created means the row did not
// exist.
type accountOp struct {
	as      *Accounts
	addr    Address
	prev    Account
	created bool
}

// Rollback puts back, newest first, everything the log recorded, and
// empties it. Map levels the merge created on the way to a nested entry
// are removed again, so a failed block leaves no empty-map marker
// behind, and accounts the block created are removed.
func (u *Undo) Rollback() {
	for i := len(u.ops) - 1; i >= 0; i-- {
		op := &u.ops[i]
		switch {
		case op.st != nil:
			op.st.Fields[op.name] = op.prev
		case op.prev == nil:
			op.m.DeleteCK(op.name)
		default:
			op.m.SetCK(op.name, op.prev)
		}
	}
	for i := len(u.accs) - 1; i >= 0; i-- {
		op := &u.accs[i]
		op.as.restore(op.addr, op.prev, op.created)
	}
	u.Reset()
}

// Reset empties the log, keeping its capacity and dropping its
// references to replaced values.
func (u *Undo) Reset() {
	clear(u.ops)
	u.ops = u.ops[:0]
	u.accs = u.accs[:0]
}

// account logs an account row about to change: what it held, or that
// it was just created. A nil log records nothing.
func (u *Undo) account(as *Accounts, addr Address, prev Account, created bool) {
	if u != nil {
		u.accs = append(u.accs, accountOp{as, addr, prev, created})
	}
}

// storeField overwrites a whole field of st.
func (u *Undo) storeField(st *eval.MemState, f string, v value.Value) error {
	prev, ok := st.Fields[f]
	if !ok {
		return fmt.Errorf("unknown field %s", f)
	}
	u.ops = append(u.ops, undoOp{st: st, name: f, prev: prev})
	st.Fields[f] = v
	return nil
}

// set writes v into slot ck of m.
func (u *Undo) set(m *value.Map, ck string, v value.Value) {
	prev := m.Entries[ck]
	u.ops = append(u.ops, undoOp{m: m, name: ck, prev: prev})
	m.SetCK(ck, v)
}

// remove deletes slot ck of m, if present.
func (u *Undo) remove(m *value.Map, ck string) {
	prev, ok := m.Entries[ck]
	if !ok {
		return
	}
	u.ops = append(u.ops, undoOp{m: m, name: ck, prev: prev})
	m.DeleteCK(ck)
}

// slot finds the innermost map holding the entry (f, keys) of st and
// the entry's canonical key in it. kp is the entry's keypath, which for
// a single key is that canonical key already. With create set, map
// levels missing on the way down are created (and logged); without it a
// missing level yields a nil map.
func (u *Undo) slot(st *eval.MemState, f, kp string, keys []value.Value, create bool) (*value.Map, string, error) {
	root, ok := st.Fields[f]
	if !ok {
		return nil, "", fmt.Errorf("unknown field %s", f)
	}
	cur, ok := root.(*value.Map)
	if !ok {
		return nil, "", fmt.Errorf("field %s is not a map", f)
	}
	if len(keys) == 0 {
		return nil, "", fmt.Errorf("field %s: entry delta without keys", f)
	}
	if len(keys) == 1 {
		return cur, kp, nil
	}
	for i, k := range keys[:len(keys)-1] {
		next, found := cur.Get(k)
		if !found {
			if !create {
				return nil, "", nil
			}
			inner, ok := cur.ValType.(ast.MapType)
			if !ok {
				return nil, "", fmt.Errorf("field %s is not nested at depth %d", f, i)
			}
			next = value.NewMap(inner.Key, inner.Val)
			u.set(cur, value.CanonicalKey(k), next)
		}
		if cur, ok = next.(*value.Map); !ok {
			return nil, "", fmt.Errorf("field %s has non-map value at depth %d", f, i)
		}
	}
	return cur, value.CanonicalKey(keys[len(keys)-1]), nil
}

// MergeDeltas performs the deterministic three-way merge of Sec. 4.3:
// it folds every shard's state delta into the canonical epoch-start
// state st, in place, each entry at its keypath by its join kind.
// Overwrites of the same component by two shards are conflicts
// (dispatch must prevent them); integer deltas are summed with overflow
// checking. Deltas are canonical (StateDelta), so fields and entries
// merge in the order they are held. The cost follows the deltas, not
// the size of st.
//
// Every write is recorded in undo first. On an error st is left part
// merged: the caller rolls the whole block back through undo.
func MergeDeltas(st *eval.MemState, deltas []*StateDelta, undo *Undo) error {
	overwritten := map[slot2]bool{}
	for _, d := range deltas {
		for i := range d.Fields {
			fd := &d.Fields[i]
			if fd.Whole != nil {
				if err := applyWhole(st, undo, d.Contract, fd.Name, fd.Whole, overwritten); err != nil {
					return err
				}
			}
			for j := range fd.Entries {
				if err := applyEntry(st, undo, d.Contract, fd.Name, &fd.Entries[j], overwritten); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func applyWhole(st *eval.MemState, undo *Undo, contract Address, f string, e *EntryDelta, overwritten map[slot2]bool) error {
	s := slot2{field: f}
	switch e.Kind {
	case IntAdd:
		cur, err := st.LoadField(f)
		if err != nil {
			return err
		}
		iv, ok := cur.(value.Int)
		if !ok {
			return fmt.Errorf("field %s is not an integer", f)
		}
		// A fresh big.Int, never iv.V.Add: receipts, state responses
		// and the undo log alias the canonical value.
		sum := new(big.Int).Add(iv.V, e.Delta)
		if !inRangeOf(iv, sum) {
			return &OverflowError{Contract: contract, Field: f}
		}
		return undo.storeField(st, f, value.Int{Ty: iv.Ty, V: sum})
	default:
		if overwritten[s] {
			return &ConflictError{Contract: contract, Field: f}
		}
		overwritten[s] = true
		// Copied: the delta lives on in sealed FinalBlocks, canonical
		// state is written in place.
		return undo.storeField(st, f, value.Copy(e.Value))
	}
}

func applyEntry(st *eval.MemState, undo *Undo, contract Address, f string, e *EntryDelta, overwritten map[slot2]bool) error {
	kp := e.Keypath
	if e.Kind != IntAdd {
		s := slot2{field: f, kp: kp}
		if overwritten[s] {
			return &ConflictError{Contract: contract, Field: f, Keypath: kp}
		}
		overwritten[s] = true
	}
	m, ck, err := undo.slot(st, f, kp, e.Keys, e.Kind != Delete)
	if err != nil {
		return err
	}
	switch e.Kind {
	case IntAdd:
		cur := new(big.Int)
		var ty value.Int
		if v, found := m.GetCK(ck); found {
			iv, ok := v.(value.Int)
			if !ok {
				return fmt.Errorf("entry %s[%q] is not an integer", f, kp)
			}
			cur = iv.V
			ty = iv
		} else {
			// Absent entries merge as zero of the leaf type.
			lt, err := leafIntType(st, f, len(e.Keys))
			if err != nil {
				return err
			}
			ty = value.Int{Ty: lt}
		}
		sum := new(big.Int).Add(cur, e.Delta)
		if !inRangeOf(ty, sum) {
			return &OverflowError{Contract: contract, Field: f, Keypath: kp}
		}
		undo.set(m, ck, value.Int{Ty: ty.Ty, V: sum})
	case Delete:
		if m != nil {
			undo.remove(m, ck)
		}
	default:
		undo.set(m, ck, value.Copy(e.Value))
	}
	return nil
}

type slot2 struct{ field, kp string }

func inRangeOf(sample value.Int, v *big.Int) bool {
	if sample.Ty.IntWidth() == 0 {
		return true
	}
	return ast.InRange(sample.Ty, v)
}

// leafIntType returns the integer type at the bottom of a (possibly
// nested) map field.
func leafIntType(st *eval.MemState, field string, depth int) (ast.PrimType, error) {
	t, ok := st.Types[field]
	if !ok {
		return ast.PrimType{}, fmt.Errorf("unknown field %s", field)
	}
	for i := 0; i < depth; i++ {
		mt, ok := t.(ast.MapType)
		if !ok {
			return ast.PrimType{}, fmt.Errorf("field %s not nested at depth %d", field, i)
		}
		t = mt.Val
	}
	pt, ok := t.(ast.PrimType)
	if !ok || !pt.IsInt() {
		return ast.PrimType{}, fmt.Errorf("field %s leaf is not an integer", field)
	}
	return pt, nil
}
