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
	MapGet(field string, cks []string, keys []value.Value) (value.Value, bool, error)
}

// KeypathSep separates canonical keys in a flattened nested-map path.
// No canonical key holds a byte this low (value.AppendStrKey), so a
// keypath splits into its keys' forms and orders as their tuple does.
const KeypathSep = "\x1f"

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
			sb.WriteString(KeypathSep)
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
	// merged caches the materialised merge of LoadField for map fields
	// with pending entry writes; invalidated by any write to the field.
	merged map[string]value.Value
	// spare recycles per-field write tables across Reset cycles so a
	// pooled per-transaction overlay stops allocating fresh maps for
	// every transaction that touches the same fields.
	spare []map[string]mapEntry
}

// NewOverlay creates an overlay over base.
func NewOverlay(base StateReader, fieldTypes map[string]ast.Type) *Overlay {
	return &Overlay{
		base:       base,
		fieldTypes: fieldTypes,
		scalars:    make(map[string]value.Value),
		mapWrites:  make(map[string]map[string]mapEntry),
	}
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
		if err := foldEntry(merged, e); err != nil {
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

// ownKeys returns a key slice the overlay may retain: callers (the
// interpreter's map-statement path) reuse their key buffers, so the
// slice is copied on first write of a keypath and reused on overwrite.
func (o *Overlay) ownKeys(w map[string]mapEntry, kp string, keys []value.Value) []value.Value {
	if old, ok := w[kp]; ok {
		return old.keys
	}
	return append([]value.Value(nil), keys...)
}

// MapGet implements eval.StateAccess.
func (o *Overlay) MapGet(field string, cks []string, keys []value.Value) (value.Value, bool, error) {
	if v, ok := o.scalars[field]; ok {
		m, ok := v.(*value.Map)
		if !ok {
			return nil, false, fmt.Errorf("field %s is not a map", field)
		}
		inner, err := eval.MapAt(m, cks, false)
		if inner == nil {
			return nil, false, err
		}
		v, ok := inner.GetCK(cks[len(cks)-1])
		return v, ok, nil
	}
	if e, ok := o.mapWrites[field][strings.Join(cks, KeypathSep)]; ok {
		if e.deleted {
			return nil, false, nil
		}
		return e.val, true, nil
	}
	return o.base.MapGet(field, cks, keys)
}

// MapSet implements eval.StateAccess.
func (o *Overlay) MapSet(field string, cks []string, keys []value.Value, v value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		return setNested(m, cks, value.Copy(v))
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := strings.Join(cks, KeypathSep)
	w[kp] = mapEntry{keys: o.ownKeys(w, kp, keys), val: value.Copy(v)}
	return nil
}

// MapDelete implements eval.StateAccess.
func (o *Overlay) MapDelete(field string, cks []string, keys []value.Value) error {
	if sv, ok := o.scalars[field]; ok {
		m, ok := sv.(*value.Map)
		if !ok {
			return fmt.Errorf("field %s is not a map", field)
		}
		deleteNested(m, cks)
		return nil
	}
	w := o.writesFor(field)
	delete(o.merged, field)
	kp := strings.Join(cks, KeypathSep)
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
				foldEntry(m, e) //nolint:errcheck // validated on child write
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

// foldEntry applies one pending entry write to a materialised map.
func foldEntry(m *value.Map, e mapEntry) error {
	var buf [4]string
	cks := eval.CanonicalKeys(buf[:0], e.keys)
	if e.deleted {
		deleteNested(m, cks)
		return nil
	}
	return setNested(m, cks, e.val)
}

// setNested writes v at cks in m, creating the map levels on the way.
func setNested(m *value.Map, cks []string, v value.Value) error {
	inner, err := eval.MapAt(m, cks, true)
	if err != nil {
		return err
	}
	inner.SetCK(cks[len(cks)-1], v)
	return nil
}

// deleteNested removes the entry at cks from m, if it is there.
func deleteNested(m *value.Map, cks []string) {
	if inner, _ := eval.MapAt(m, cks, false); inner != nil {
		inner.DeleteCK(cks[len(cks)-1])
	}
}

// Interface conformance checks.
var (
	_ eval.StateAccess = (*Overlay)(nil)
	_ eval.StateAccess = (*eval.MemState)(nil)
	_ StateReader      = (*Overlay)(nil)
	_ StateReader      = (*eval.MemState)(nil)
)
