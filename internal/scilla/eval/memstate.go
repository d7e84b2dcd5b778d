package eval

import (
	"fmt"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

// MemState is a straightforward in-memory StateAccess used by tests,
// examples, and as the backing store of the blockchain substrate's
// canonical contract state.
type MemState struct {
	Fields map[string]value.Value
	Types  map[string]ast.Type
}

// NewMemState creates an empty in-memory state with the given field
// types.
func NewMemState(types map[string]ast.Type) *MemState {
	return &MemState{
		Fields: make(map[string]value.Value),
		Types:  types,
	}
}

// InitFrom evaluates all field initialisers of the interpreter's
// contract into this state.
func (m *MemState) InitFrom(in *Interpreter) error {
	for i := range in.checked.Module.Contract.Fields {
		f := &in.checked.Module.Contract.Fields[i]
		v, err := in.InitField(f)
		if err != nil {
			return fmt.Errorf("field %s: %w", f.Name, err)
		}
		m.Fields[f.Name] = v
	}
	return nil
}

// LoadField implements StateAccess.
func (m *MemState) LoadField(name string) (value.Value, error) {
	v, ok := m.Fields[name]
	if !ok {
		return nil, fmt.Errorf("unknown field %s", name)
	}
	return v, nil
}

// StoreField implements StateAccess.
func (m *MemState) StoreField(name string, v value.Value) error {
	if _, ok := m.Fields[name]; !ok {
		return fmt.Errorf("unknown field %s", name)
	}
	m.Fields[name] = v
	return nil
}

// mapAt returns the innermost map of field that cks addresses (MapAt).
func (m *MemState) mapAt(field string, cks []string, create bool) (*value.Map, error) {
	root, ok := m.Fields[field]
	if !ok {
		return nil, fmt.Errorf("unknown field %s", field)
	}
	cur, ok := root.(*value.Map)
	if !ok {
		return nil, fmt.Errorf("field %s is not a map", field)
	}
	inner, err := MapAt(cur, cks, create)
	if err != nil {
		return nil, fmt.Errorf("field %s: %w", field, err)
	}
	return inner, nil
}

// MapAt is the one walk down nested map levels by canonical keys: it
// returns the map of m that cks's last key names an entry of. A level
// missing on the way is created, of its parent's value type, when
// create is set; otherwise MapAt returns nil.
func MapAt(m *value.Map, cks []string, create bool) (*value.Map, error) {
	for i := 0; i < len(cks)-1; i++ {
		next, found := m.GetCK(cks[i])
		if !found {
			if !create {
				return nil, nil
			}
			inner, ok := m.ValType.(ast.MapType)
			if !ok {
				return nil, fmt.Errorf("not nested at depth %d", i)
			}
			next = value.NewMap(inner.Key, inner.Val)
			m.SetCK(cks[i], next)
		}
		var ok bool
		if m, ok = next.(*value.Map); !ok {
			return nil, fmt.Errorf("non-map value at depth %d", i)
		}
	}
	return m, nil
}

// MapGet implements StateAccess.
func (m *MemState) MapGet(field string, cks []string, keys []value.Value) (value.Value, bool, error) {
	inner, err := m.mapAt(field, cks, false)
	if inner == nil {
		return nil, false, err
	}
	v, ok := inner.GetCK(cks[len(cks)-1])
	return v, ok, nil
}

// MapSet implements StateAccess.
func (m *MemState) MapSet(field string, cks []string, keys []value.Value, v value.Value) error {
	inner, err := m.mapAt(field, cks, true)
	if err != nil {
		return err
	}
	inner.SetCK(cks[len(cks)-1], v)
	return nil
}

// MapDelete implements StateAccess.
func (m *MemState) MapDelete(field string, cks []string, keys []value.Value) error {
	inner, err := m.mapAt(field, cks, false)
	if inner != nil {
		inner.DeleteCK(cks[len(cks)-1])
	}
	return err
}

// Copy deep-copies the state.
func (m *MemState) Copy() *MemState {
	out := NewMemState(m.Types)
	for k, v := range m.Fields {
		out.Fields[k] = value.Copy(v)
	}
	return out
}

// Equal reports whether two states hold identical field values.
func (m *MemState) Equal(o *MemState) bool {
	if len(m.Fields) != len(o.Fields) {
		return false
	}
	for k, v := range m.Fields {
		ov, ok := o.Fields[k]
		if !ok || !value.Equal(v, ov) {
			return false
		}
	}
	return true
}
