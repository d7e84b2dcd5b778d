package contracts_test

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/compile"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/typecheck"
	"cosplit/internal/scilla/value"
)

// synthValue produces a dummy value of the given type.
func synthValue(t ast.Type) value.Value {
	switch tt := t.(type) {
	case ast.PrimType:
		switch {
		case tt.IsInt():
			return value.Int{Ty: tt, V: big.NewInt(1)}
		case tt.Kind == ast.StringKind:
			return value.Str{S: "x"}
		case tt.Kind == ast.ByStr20:
			return value.ByStr{Ty: tt, B: make([]byte, 20)}
		case tt.Kind == ast.ByStr32:
			return value.ByStr{Ty: tt, B: make([]byte, 32)}
		case tt.Kind == ast.ByStr:
			return value.ByStr{Ty: tt, B: []byte{1, 2}}
		case tt.Kind == ast.BNum:
			return value.BNum{V: big.NewInt(1)}
		}
	case ast.MapType:
		return value.NewMap(tt.Key, tt.Val)
	case ast.ADTType:
		switch tt.Name {
		case "Bool":
			return value.True()
		case "Option":
			return value.None(tt.Args[0])
		case "List":
			return value.NilList(tt.Args[0])
		case "Pair":
			return value.PairV(tt.Args[0], tt.Args[1],
				synthValue(tt.Args[0]), synthValue(tt.Args[1]))
		}
	}
	return value.Unit{}
}

// deploy builds an interpreter for a corpus contract with synthesized
// contract parameters; freshState is its initial state.
func deploy(t *testing.T, name string) (*typecheck.Checked, *eval.Interpreter) {
	t.Helper()
	chk := contracts.MustParse(name)
	params := make(map[string]value.Value)
	for _, p := range chk.Module.Contract.Params {
		params[p.Name] = synthValue(p.Type)
	}
	in, err := eval.New(chk, params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return chk, in
}

func freshState(t *testing.T, chk *typecheck.Checked, in *eval.Interpreter) *eval.MemState {
	t.Helper()
	st := eval.NewMemState(chk.FieldTypes)
	if err := st.InitFrom(in); err != nil {
		t.Fatalf("InitFrom: %v", err)
	}
	return st
}

// invocation synthesizes one call of tr against st.
func invocation(tr *ast.Transition, st eval.StateAccess) (*eval.Context, map[string]value.Value) {
	args := make(map[string]value.Value, len(tr.Params))
	for _, p := range tr.Params {
		args[p.Name] = synthValue(p.Type)
	}
	sender := value.ByStr{Ty: ast.TyByStr20, B: make([]byte, 20)}
	return &eval.Context{
		Sender:          sender,
		Origin:          sender,
		Amount:          value.Uint128(5),
		BlockNumber:     big.NewInt(10),
		Timestamp:       1,
		State:           st,
		ContractBalance: big.NewInt(100),
		GasLimit:        1_000_000,
	}, args
}

// TestInvokeEveryTransition deploys every corpus contract with
// synthesized parameters and invokes every transition with synthesized
// arguments. Contract-level throws are fine; infrastructure errors
// (unknown identifiers, unhandled statements, type confusion inside the
// interpreter) are not.
func TestInvokeEveryTransition(t *testing.T) {
	for _, entry := range contracts.All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			chk, in := deploy(t, entry.Name)
			st := freshState(t, chk, in)
			for i := range chk.Module.Contract.Transitions {
				tr := &chk.Module.Contract.Transitions[i]
				ctx, args := invocation(tr, st)
				_, err := in.Run(ctx, tr.Name, args)
				if err == nil {
					continue
				}
				switch err.(type) {
				case *eval.ThrowError, *eval.OutOfGasError:
					// Contract-level rejection: fine.
				default:
					t.Errorf("transition %s: infrastructure error: %v", tr.Name, err)
				}
			}
		})
	}
}

// access is one state access as an engine made it: which operation on
// which component (field plus keypath).
type access struct{ op, field, keypath string }

// recordingState is an eval.StateAccess that logs every access before
// passing it on, and holds the caller to the interface's contract that
// cks are the canonical forms of keys.
type recordingState struct {
	t     *testing.T
	inner eval.StateAccess
	log   []access
}

func (r *recordingState) note(op, field string, cks []string, keys []value.Value) {
	r.t.Helper()
	if len(cks) != len(keys) {
		r.t.Fatalf("%s %s: %d canonical keys for %d keys", op, field, len(cks), len(keys))
	}
	for i, k := range keys {
		if cks[i] != value.CanonicalKey(k) {
			r.t.Fatalf("%s %s: cks[%d] = %q, canonical key is %q", op, field, i, cks[i], value.CanonicalKey(k))
		}
	}
	r.log = append(r.log, access{op, field, strings.Join(cks, "\x1f")})
}

func (r *recordingState) LoadField(name string) (value.Value, error) {
	r.note("load", name, nil, nil)
	return r.inner.LoadField(name)
}

func (r *recordingState) StoreField(name string, v value.Value) error {
	r.note("store", name, nil, nil)
	return r.inner.StoreField(name, v)
}

func (r *recordingState) MapGet(field string, cks []string, keys []value.Value) (value.Value, bool, error) {
	r.note("get", field, cks, keys)
	return r.inner.MapGet(field, cks, keys)
}

func (r *recordingState) MapSet(field string, cks []string, keys []value.Value, v value.Value) error {
	r.note("set", field, cks, keys)
	return r.inner.MapSet(field, cks, keys, v)
}

func (r *recordingState) MapDelete(field string, cks []string, keys []value.Value) error {
	r.note("delete", field, cks, keys)
	return r.inner.MapDelete(field, cks, keys)
}

// TestEnginesTouchSameComponents runs every transition of every corpus
// contract on the interpreter and on the compiled program, each over
// its own recording state, and requires the two sequences of
// (operation, field, keypath) to be equal — failing runs included: an
// aborted transition must have touched the same components up to the
// abort on both engines.
func TestEnginesTouchSameComponents(t *testing.T) {
	for _, entry := range contracts.All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			chk, in := deploy(t, entry.Name)
			prog := compile.New(in)
			stI, stC := freshState(t, chk, in), freshState(t, chk, in)
			for i := range chk.Module.Contract.Transitions {
				tr := &chk.Module.Contract.Transitions[i]
				recI := &recordingState{t: t, inner: stI}
				recC := &recordingState{t: t, inner: stC}
				ctxI, args := invocation(tr, recI)
				ctxC, _ := invocation(tr, recC)
				_, errI := in.Run(ctxI, tr.Name, args)
				_, errC := prog.Run(ctxC, tr.Name, args)
				if (errI == nil) != (errC == nil) {
					t.Fatalf("%s: interpreter err=%v, compiled err=%v", tr.Name, errI, errC)
				}
				if !slices.Equal(recI.log, recC.log) {
					t.Errorf("%s (err=%v): engines touched different components\ninterpreter: %v\ncompiled:    %v",
						tr.Name, errI, recI.log, recC.log)
				}
				if !stI.Equal(stC) {
					t.Fatalf("%s: states diverge", tr.Name)
				}
			}
		})
	}
}
