package chain

import (
	"fmt"
	"strings"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// StateReader is the read-only view of contract state. Both
// eval.MemState and Overlay implement it, so overlays stack.
type StateReader interface {
	LoadField(name string) (value.Value, error)
	MapGet(field string, keys []value.Value) (value.Value, bool, error)
}

// keypathSep separates canonical keys in a flattened nested-map path.
const keypathSep = "\x1f"

// Keypath renders a key vector canonically. The single-key case (flat
// maps such as balances[addr], by far the most common shape) avoids the
// intermediate parts slice entirely; deeper paths are assembled in one
// strings.Builder pass.
func Keypath(keys []value.Value) string {
	switch len(keys) {
	case 0:
		return ""
	case 1:
		return value.CanonicalKey(keys[0])
	}
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(keypathSep)
		}
		sb.WriteString(value.CanonicalKey(k))
	}
	return sb.String()
}

type mapEntry struct {
	keys    []value.Value
	val     value.Value
	deleted bool
}

// Overlay is a copy-on-write view over a base state. All writes land in
// the overlay; the base is never mutated. Overlays are the unit of
// transaction rollback (per-transaction overlay dropped on throw) and
// of state-delta extraction (per-shard overlay diffed against the
// epoch-start state).
type Overlay struct {
	base       StateReader
	fieldTypes map[string]ast.Type
	// scalars holds whole-field overwrites (including map fields that
	// were stored wholesale; subsequent map ops mutate that copy).
	scalars map[string]value.Value
	// mapWrites holds per-entry writes: field -> keypath -> entry.
	mapWrites map[string]map[string]mapEntry
	// intern caches canonical keypaths for single ByStr keys (addresses
	// — by far the dominant map-key shape), indexed by the raw key
	// bytes. The cache is shared down an overlay stack (per-transaction
	// overlays inherit their parent shard overlay's table), so repeated
	// accesses to the same address across transactions canonicalise
	// once. Never shared across goroutines: each shard or group overlay
	// stack is driven by a single executor.
	intern map[string]string
	// merged caches the materialised merge of LoadField for map fields
	// with pending entry writes; invalidated by any write to the field.
	merged map[string]value.Value
	// spare recycles per-field write tables across Reset cycles so a
	// pooled per-transaction overlay stops allocating fresh maps for
	// every transaction that touches the same fields.
	spare []map[string]mapEntry
}

// keypath returns Keypath(keys), interning the single-ByStr-key case.
func (o *Overlay) keypath(keys []value.Value) string {
	if len(keys) == 1 {
		if b, ok := keys[0].(value.ByStr); ok {
			if p, ok := o.intern[string(b.B)]; ok {
				return p
			}
			p := value.CanonicalKey(keys[0])
			o.intern[string(b.B)] = p
			return p
		}
	}
	return Keypath(keys)
}

// NewOverlay creates an overlay over base. An overlay stacked on
// another overlay shares its parent's keypath intern table.
func NewOverlay(base StateReader, fieldTypes map[string]ast.Type) *Overlay {
	o := &Overlay{
		base:       base,
		fieldTypes: fieldTypes,
		scalars:    make(map[string]value.Value),
		mapWrites:  make(map[string]map[string]mapEntry),
	}
	if p, ok := base.(*Overlay); ok {
		o.intern = p.intern
	} else {
		o.intern = make(map[string]string)
	}
	return o
}

// Reset rewinds the overlay to an empty view over base, recycling its
// internal maps. Executors that create one short-lived overlay per
// transaction (rollback scopes) keep a single pooled overlay and Reset
// it instead of allocating a fresh one: the write tables, cleared in
// place, keep their buckets, so steady-state execution stops paying
// map growth and the GC pressure that comes with it. Values previously
// read from or committed out of the overlay are unaffected — Reset
// drops references, it never mutates values.
func (o *Overlay) Reset(base StateReader, fieldTypes map[string]ast.Type) {
	o.base = base
	o.fieldTypes = fieldTypes
	clear(o.scalars)
	for f, w := range o.mapWrites {
		clear(w)
		o.spare = append(o.spare, w)
		delete(o.mapWrites, f)
	}
	clear(o.merged)
	if p, ok := base.(*Overlay); ok {
		o.intern = p.intern
	} else if o.intern == nil {
		o.intern = make(map[string]string)
	}
}

// writesFor returns the per-field write table, reusing a recycled one
// before allocating.
func (o *Overlay) writesFor(field string) map[string]mapEntry {
	w, ok := o.mapWrites[field]
	if !ok {
		if n := len(o.spare); n > 0 {
			w = o.spare[n-1]
			o.spare[n-1] = nil
			o.spare = o.spare[:n-1]
		} else {
			w = make(map[string]mapEntry)
		}
		o.mapWrites[field] = w
	}
	return w
}

// fieldMapDepth returns the nesting depth of a map field.
func fieldMapDepth(t ast.Type) int {
	d := 0
	for {
		mt, ok := t.(ast.MapType)
		if !ok {
			return d
		}
		d++
		t = mt.Val
	}
}

// LoadField implements eval.StateAccess. Loading a map field with
// pending entry writes materialises a merged copy.
func (o *Overlay) LoadField(name string) (value.Value, error) {
	if v, ok := o.scalars[name]; ok {
		return v, nil
	}
	baseVal, err := o.base.LoadField(name)
	if err != nil {
		return nil, err
	}
	writes := o.mapWrites[name]
	if len(writes) == 0 {
		return baseVal, nil
	}
	if v, ok := o.merged[name]; ok {
		return v, nil
	}
	bm, ok := baseVal.(*value.Map)
	if !ok {
		return nil, fmt.Errorf("field %s has entry writes but is not a map", name)
	}
	merged := bm.Copy()
	for _, e := range writes {
		if e.deleted {
			deleteNested(merged, e.keys)
		} else if err := setNested(merged, e.keys, e.val, o.fieldTypes[name]); err != nil {
			return nil, err
		}
	}
	if o.merged == nil {
		o.merged = make(map[string]value.Value)
	}
	o.merged[name] = merged
	return merged, nil
}

// StoreField implements eval.StateAccess.
func (o *Overlay) StoreField(name string, v value.Value) error {
	if _, ok := o.fieldTypes[name]; !ok {
		return fmt.Errorf("unknown field %s", name)
	}
	// A wholesale store supersedes any pending entry writes.
	delete(o.mapWrites, name)
	delete(o.merged, name)
	o.scalars[name] = value.Copy(v)
	return nil
}

// MapGet implements eval.StateAccess.
func (o *Overlay) MapGet(field string, keys []value.Value) (value.Value, bool, error) {
	if v, ok := o.scalars[field]; ok {
		m, ok := v.(*value.Map)
		if !ok {
			return nil, false, fmt.Errorf("field %s is not a map", field)
		}
		return getNested(m, keys)
	}
	if e, ok := o.mapWrites[field][o.keypath(keys)]; ok {
		if e.deleted {
			return nil, false, nil
		}
		return e.val, true, nil
	}
	return o.base.MapGet(field, keys)
}

// MapSet implements eval.StateAccess.
func (o *Overlay) MapSet(field string, keys []value.Value, v value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		return setNested(m, keys, value.Copy(v), o.fieldTypes[field])
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := o.keypath(keys)
	w[kp] = mapEntry{keys: o.ownKeys(w, kp, keys), val: value.Copy(v)}
	return nil
}

// ownKeys returns a key slice the overlay may retain: callers (the
// interpreter's map-statement path) reuse their key buffers, so the
// slice is copied on first write of a keypath and reused on overwrite.
func (o *Overlay) ownKeys(w map[string]mapEntry, kp string, keys []value.Value) []value.Value {
	if old, ok := w[kp]; ok {
		return old.keys
	}
	return append([]value.Value(nil), keys...)
}

// MapDelete implements eval.StateAccess.
func (o *Overlay) MapDelete(field string, keys []value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		deleteNested(m, keys)
		return nil
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := o.keypath(keys)
	w[kp] = mapEntry{keys: o.ownKeys(w, kp, keys), deleted: true}
	return nil
}

// keypathCK joins precomputed per-level canonical keys into a keypath.
func keypathCK(cks []string) string {
	switch len(cks) {
	case 0:
		return ""
	case 1:
		return cks[0]
	}
	return strings.Join(cks, keypathSep)
}

// MapGetCK implements eval.KeyedState: MapGet with precomputed
// canonical keys, skipping per-access keypath canonicalisation.
func (o *Overlay) MapGetCK(field string, cks []string, keys []value.Value) (value.Value, bool, error) {
	if v, ok := o.scalars[field]; ok {
		m, ok := v.(*value.Map)
		if !ok {
			return nil, false, fmt.Errorf("field %s is not a map", field)
		}
		return getNestedCK(m, cks)
	}
	if e, ok := o.mapWrites[field][keypathCK(cks)]; ok {
		if e.deleted {
			return nil, false, nil
		}
		return e.val, true, nil
	}
	if ks, ok := o.base.(eval.KeyedState); ok {
		return ks.MapGetCK(field, cks, keys)
	}
	return o.base.MapGet(field, keys)
}

// MapSetCK implements eval.KeyedState.
func (o *Overlay) MapSetCK(field string, cks []string, keys []value.Value, v value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		return setNestedCK(m, cks, keys, value.Copy(v), o.fieldTypes[field])
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := keypathCK(cks)
	w[kp] = mapEntry{keys: o.ownKeys(w, kp, keys), val: value.Copy(v)}
	return nil
}

// MapDeleteCK implements eval.KeyedState.
func (o *Overlay) MapDeleteCK(field string, cks []string, keys []value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		deleteNestedCK(m, cks)
		return nil
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := keypathCK(cks)
	w[kp] = mapEntry{keys: o.ownKeys(w, kp, keys), deleted: true}
	return nil
}

// CommitTo folds this overlay's writes into its parent overlay. The
// receiver must have been created with (or Reset onto) parent as its
// base, and is considered consumed afterwards: its values and key
// slices transfer to the parent without re-copying — the overlay
// already owns copies of everything it stores, so handing them over is
// safe as long as the committed overlay is discarded or Reset before
// its next write.
func (o *Overlay) CommitTo(parent *Overlay) {
	for f, v := range o.scalars {
		delete(parent.mapWrites, f)
		delete(parent.merged, f)
		// Scalars stay copied: the parent's wholesale map copy is
		// mutated in place by later entry folds, so it must not alias
		// values the committed transition may have exposed in results.
		parent.scalars[f] = value.Copy(v)
	}
	for f, writes := range o.mapWrites {
		if sv, ok := parent.scalars[f]; ok {
			// The parent holds the field wholesale; fold entries into
			// that materialised copy, as MapSet/MapDelete would.
			m, ok := sv.(*value.Map)
			if !ok {
				continue
			}
			for _, e := range writes {
				if e.deleted {
					deleteNested(m, e.keys)
				} else {
					setNested(m, e.keys, e.val, parent.fieldTypes[f]) //nolint:errcheck // validated on child write
				}
			}
			continue
		}
		pw := parent.writesFor(f)
		delete(parent.merged, f)
		for kp, e := range writes {
			if old, ok := pw[kp]; ok {
				// Keep the parent's owned key slice on overwrite,
				// mirroring ownKeys.
				e.keys = old.keys
			}
			pw[kp] = e
		}
	}
}

// Touched reports whether the overlay holds any writes.
func (o *Overlay) Touched() bool {
	return len(o.scalars) > 0 || len(o.mapWrites) > 0
}

// --- nested map helpers operating on materialised map values ---

func getNested(m *value.Map, keys []value.Value) (value.Value, bool, error) {
	cur := m
	for i := 0; i < len(keys)-1; i++ {
		v, ok := cur.Get(keys[i])
		if !ok {
			return nil, false, nil
		}
		nm, ok := v.(*value.Map)
		if !ok {
			return nil, false, fmt.Errorf("non-map value at nesting depth %d", i)
		}
		cur = nm
	}
	v, ok := cur.Get(keys[len(keys)-1])
	return v, ok, nil
}

func setNested(m *value.Map, keys []value.Value, v value.Value, fieldType ast.Type) error {
	cur := m
	t := fieldType
	for i := 0; i < len(keys)-1; i++ {
		mt, ok := t.(ast.MapType)
		if !ok {
			return fmt.Errorf("field not nested at depth %d", i)
		}
		t = mt.Val
		next, found := cur.Get(keys[i])
		if !found {
			inner, ok := t.(ast.MapType)
			if !ok {
				return fmt.Errorf("field not nested at depth %d", i+1)
			}
			nm := value.NewMap(inner.Key, inner.Val)
			cur.Set(keys[i], nm)
			next = nm
		}
		nm, ok := next.(*value.Map)
		if !ok {
			return fmt.Errorf("non-map value at nesting depth %d", i)
		}
		cur = nm
	}
	cur.Set(keys[len(keys)-1], v)
	return nil
}

func deleteNested(m *value.Map, keys []value.Value) {
	cur := m
	for i := 0; i < len(keys)-1; i++ {
		v, ok := cur.Get(keys[i])
		if !ok {
			return
		}
		nm, ok := v.(*value.Map)
		if !ok {
			return
		}
		cur = nm
	}
	cur.Delete(keys[len(keys)-1])
}

// CK variants of the nested helpers, using precomputed canonical keys.

func getNestedCK(m *value.Map, cks []string) (value.Value, bool, error) {
	cur := m
	for i := 0; i < len(cks)-1; i++ {
		v, ok := cur.GetCK(cks[i])
		if !ok {
			return nil, false, nil
		}
		nm, ok := v.(*value.Map)
		if !ok {
			return nil, false, fmt.Errorf("non-map value at nesting depth %d", i)
		}
		cur = nm
	}
	v, ok := cur.GetCK(cks[len(cks)-1])
	return v, ok, nil
}

func setNestedCK(m *value.Map, cks []string, keys []value.Value, v value.Value, fieldType ast.Type) error {
	cur := m
	t := fieldType
	for i := 0; i < len(cks)-1; i++ {
		mt, ok := t.(ast.MapType)
		if !ok {
			return fmt.Errorf("field not nested at depth %d", i)
		}
		t = mt.Val
		next, found := cur.GetCK(cks[i])
		if !found {
			inner, ok := t.(ast.MapType)
			if !ok {
				return fmt.Errorf("field not nested at depth %d", i+1)
			}
			nm := value.NewMap(inner.Key, inner.Val)
			cur.SetCK(cks[i], keys[i], nm)
			next = nm
		}
		nm, ok := next.(*value.Map)
		if !ok {
			return fmt.Errorf("non-map value at nesting depth %d", i)
		}
		cur = nm
	}
	cur.SetCK(cks[len(cks)-1], keys[len(keys)-1], v)
	return nil
}

func deleteNestedCK(m *value.Map, cks []string) {
	cur := m
	for i := 0; i < len(cks)-1; i++ {
		v, ok := cur.GetCK(cks[i])
		if !ok {
			return
		}
		nm, ok := v.(*value.Map)
		if !ok {
			return
		}
		cur = nm
	}
	cur.DeleteCK(cks[len(cks)-1])
}

// Interface conformance checks.
var (
	_ eval.StateAccess = (*Overlay)(nil)
	_ eval.KeyedState  = (*Overlay)(nil)
	_ eval.KeyedState  = (*eval.MemState)(nil)
	_ StateReader      = (*Overlay)(nil)
	_ StateReader      = (*eval.MemState)(nil)
)
