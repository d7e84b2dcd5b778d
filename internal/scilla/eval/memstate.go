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

// mapAt descends cks[:len-1] levels, creating intermediate maps when
// create is true, and returns the innermost map.
func (m *MemState) mapAt(field string, cks []string, create bool) (*value.Map, error) {
	root, ok := m.Fields[field]
	if !ok {
		return nil, fmt.Errorf("unknown field %s", field)
	}
	cur, ok := root.(*value.Map)
	if !ok {
		return nil, fmt.Errorf("field %s is not a map", field)
	}
	for i := 0; i < len(cks)-1; i++ {
		next, found := cur.GetCK(cks[i])
		if !found {
			if !create {
				return nil, nil
			}
			inner, ok := cur.ValType.(ast.MapType)
			if !ok {
				return nil, fmt.Errorf("field %s is not nested at depth %d", field, i)
			}
			nm := value.NewMap(inner.Key, inner.Val)
			cur.SetCK(cks[i], nm)
			next = nm
		}
		nm, ok := next.(*value.Map)
		if !ok {
			return nil, fmt.Errorf("field %s has non-map value at depth %d", field, i)
		}
		cur = nm
	}
	return cur, nil
}

// MapGet implements StateAccess.
func (m *MemState) MapGet(field string, cks []string, keys []value.Value) (value.Value, bool, error) {
	inner, err := m.mapAt(field, cks, false)
	if err != nil {
		return nil, false, err
	}
	if inner == nil {
		return nil, false, nil
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
	if err != nil {
		return err
	}
	if inner == nil {
		return nil
	}
	inner.DeleteCK(cks[len(cks)-1])
	return nil
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
