package compile_test

import (
	"fmt"
	"math/big"
	"testing"

	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/compile"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/parser"
	"cosplit/internal/scilla/typecheck"
	"cosplit/internal/scilla/value"
)

// synthV produces a deterministic value of the given type, varied by
// seed so different runs exercise different guard outcomes.
func synthV(t ast.Type, seed int64) value.Value {
	switch tt := t.(type) {
	case ast.PrimType:
		switch {
		case tt.IsInt():
			return value.Int{Ty: tt, V: big.NewInt(1 + seed%7)}
		case tt.Kind == ast.StringKind:
			return value.Str{S: fmt.Sprintf("x%d", seed)}
		case tt.Kind == ast.ByStr20:
			b := make([]byte, 20)
			b[19] = byte(seed % 3)
			return value.ByStr{Ty: tt, B: b}
		case tt.Kind == ast.ByStr32:
			b := make([]byte, 32)
			b[31] = byte(seed % 3)
			return value.ByStr{Ty: tt, B: b}
		case tt.Kind == ast.ByStr:
			return value.ByStr{Ty: tt, B: []byte{1, byte(seed)}}
		case tt.Kind == ast.BNum:
			return value.BNum{V: big.NewInt(1 + seed)}
		}
	case ast.MapType:
		return value.NewMap(tt.Key, tt.Val)
	case ast.ADTType:
		switch tt.Name {
		case "Bool":
			if seed%2 == 0 {
				return value.False()
			}
			return value.True()
		case "Option":
			return value.None(tt.Args[0])
		case "List":
			return value.NilList(tt.Args[0])
		case "Pair":
			return value.PairV(tt.Args[0], tt.Args[1],
				synthV(tt.Args[0], seed), synthV(tt.Args[1], seed+1))
		}
	}
	return value.Unit{}
}

func freshState(t *testing.T, in *eval.Interpreter, chk *typecheck.Checked) *eval.MemState {
	t.Helper()
	st := eval.NewMemState(chk.FieldTypes)
	if err := st.InitFrom(in); err != nil {
		t.Fatalf("InitFrom: %v", err)
	}
	return st
}

func diffCtx(st eval.StateAccess, seed int64, gasLimit uint64) *eval.Context {
	sender := make([]byte, 20)
	sender[19] = byte(seed % 3)
	return &eval.Context{
		Sender:          value.ByStr{Ty: ast.TyByStr20, B: sender},
		Origin:          value.ByStr{Ty: ast.TyByStr20, B: sender},
		Amount:          value.Uint128(uint64(5 + seed)),
		BlockNumber:     big.NewInt(10 + seed),
		Timestamp:       uint64(100 + seed),
		State:           st,
		ContractBalance: big.NewInt(1000),
		GasLimit:        gasLimit,
	}
}

func msgsEqual(a, b []value.Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// compareRuns executes one transition on both engines against
// independent but identical states and fails on any observable
// divergence: result fields, gas, error identity, and final state
// (including partial state left behind by aborts).
func compareRuns(t *testing.T, in *eval.Interpreter, prog *compile.Program,
	chk *typecheck.Checked, trName string, args map[string]value.Value,
	seed int64, gasLimit uint64) {
	t.Helper()
	stI := freshState(t, in, chk)
	stC := freshState(t, in, chk)
	ctxI := diffCtx(stI, seed, gasLimit)
	ctxC := diffCtx(stC, seed, gasLimit)

	argsI := make(map[string]value.Value, len(args))
	argsC := make(map[string]value.Value, len(args))
	for k, v := range args {
		argsI[k] = v
		argsC[k] = value.Copy(v)
	}

	resI, errI := in.Run(ctxI, trName, argsI)
	resC, errC := prog.Run(ctxC, trName, argsC)

	if (errI == nil) != (errC == nil) {
		t.Fatalf("%s seed=%d limit=%d: error divergence: interp=%v compiled=%v", trName, seed, gasLimit, errI, errC)
	}
	if errI != nil {
		if fmt.Sprintf("%T", errI) != fmt.Sprintf("%T", errC) || errI.Error() != errC.Error() {
			t.Fatalf("%s seed=%d limit=%d: error mismatch: interp=%T %q compiled=%T %q",
				trName, seed, gasLimit, errI, errI.Error(), errC, errC.Error())
		}
	}
	if ctxI.GasUsed != ctxC.GasUsed {
		t.Fatalf("%s seed=%d limit=%d: gas divergence: interp=%d compiled=%d (err=%v)",
			trName, seed, gasLimit, ctxI.GasUsed, ctxC.GasUsed, errI)
	}
	if errI == nil {
		if resI.Accepted != resC.Accepted {
			t.Fatalf("%s seed=%d: accepted divergence", trName, seed)
		}
		if resI.GasUsed != resC.GasUsed {
			t.Fatalf("%s seed=%d: result gas divergence: %d vs %d", trName, seed, resI.GasUsed, resC.GasUsed)
		}
		if !msgsEqual(resI.Messages, resC.Messages) {
			t.Fatalf("%s seed=%d: messages diverge:\ninterp=%v\ncompiled=%v", trName, seed, resI.Messages, resC.Messages)
		}
		if !msgsEqual(resI.Events, resC.Events) {
			t.Fatalf("%s seed=%d: events diverge:\ninterp=%v\ncompiled=%v", trName, seed, resI.Events, resC.Events)
		}
	}
	if !stI.Equal(stC) {
		t.Fatalf("%s seed=%d limit=%d: final state diverges (err=%v)", trName, seed, gasLimit, errI)
	}
}

// TestDifferentialAllContracts runs every transition of every corpus
// contract through both engines across three seeds and requires
// bit-identical results, gas, errors, and state.
func TestDifferentialAllContracts(t *testing.T) {
	seeds := []int64{1, 7, 42}
	for _, entry := range contracts.All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			in, prog, chk := corpusFixture(t, entry.Name)
			for _, seed := range seeds {
				for _, tr := range chk.Module.Contract.Transitions {
					args := make(map[string]value.Value, len(tr.Params))
					for _, p := range tr.Params {
						args[p.Name] = synthV(p.Type, seed)
					}
					compareRuns(t, in, prog, chk, tr.Name, args, seed, 1_000_000)
				}
			}
		})
	}
}

// corpusFixture builds an interpreter+program for a corpus contract
// with synthesized contract parameters.
func corpusFixture(t *testing.T, name string) (*eval.Interpreter, *compile.Program, *typecheck.Checked) {
	t.Helper()
	chk := contracts.MustParse(name)
	params := make(map[string]value.Value)
	for _, p := range chk.Module.Contract.Params {
		params[p.Name] = synthV(p.Type, 0)
	}
	in, err := eval.New(chk, params)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	return in, compile.New(in), chk
}

// ftFixture builds a FungibleToken interpreter+program whose contract
// owner is the seed-0 sender, so Transfer from that sender succeeds.
func ftFixture(t *testing.T) (*eval.Interpreter, *compile.Program, *typecheck.Checked) {
	t.Helper()
	chk := contracts.MustParse("FungibleToken")
	owner := make([]byte, 20) // matches diffCtx sender for seed%3==0
	params := map[string]value.Value{
		"contract_owner": value.ByStr{Ty: ast.TyByStr20, B: owner},
		"token_name":     value.Str{S: "Test"},
		"token_symbol":   value.Str{S: "TST"},
		"decimals":       value.Int{Ty: ast.TyUint32, V: big.NewInt(6)},
		"init_supply":    value.Uint128(1_000_000),
	}
	in, err := eval.New(chk, params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in, compile.New(in), chk
}

func transferArgs(seed int64) map[string]value.Value {
	to := make([]byte, 20)
	to[0] = 0xaa
	to[19] = byte(seed)
	return map[string]value.Value{
		"to":     value.ByStr{Ty: ast.TyByStr20, B: to},
		"amount": value.Uint128(uint64(10 + seed)),
	}
}

// TestTransferFastPathCompiled pins the perf-critical property: the
// FungibleToken hot transitions compile, and Transfer engages the
// fused Option fast path.
func TestTransferFastPathCompiled(t *testing.T) {
	_, prog, _ := ftFixture(t)
	for _, tr := range []string{"Mint", "Burn", "Transfer", "TransferFrom"} {
		compiled, fast := prog.CompiledTransition(tr)
		if !compiled {
			t.Errorf("transition %s fell back to the interpreter", tr)
		}
		if !fast {
			t.Errorf("transition %s compiled without the fused fast path", tr)
		}
	}
	compiled, fallbacks, fastPaths := prog.CompileCounts()
	if fallbacks != 0 {
		t.Errorf("FungibleToken has %d fallback transitions, want 0 (compiled=%d)", fallbacks, compiled)
	}
	if fastPaths == 0 {
		t.Errorf("no fused fast paths in FungibleToken")
	}
}

// TestTransferSuccessDifferential drives many successful transfers
// through one pooled Program, comparing state after every run, so a
// machine leaking values across checkouts would diverge immediately.
func TestTransferSuccessDifferential(t *testing.T) {
	in, prog, chk := ftFixture(t)
	stI := freshState(t, in, chk)
	stC := freshState(t, in, chk)
	for i := int64(0); i < 100; i++ {
		ctxI := diffCtx(stI, 0, 1_000_000)
		ctxC := diffCtx(stC, 0, 1_000_000)
		args := transferArgs(i % 5)
		resI, errI := in.Run(ctxI, "Transfer", args)
		resC, errC := prog.Run(ctxC, "Transfer", args)
		if errI != nil || errC != nil {
			t.Fatalf("run %d: unexpected errors interp=%v compiled=%v", i, errI, errC)
		}
		if resI.GasUsed != resC.GasUsed {
			t.Fatalf("run %d: gas divergence %d vs %d", i, resI.GasUsed, resC.GasUsed)
		}
		if !msgsEqual(resI.Events, resC.Events) {
			t.Fatalf("run %d: event divergence", i)
		}
		if !stI.Equal(stC) {
			t.Fatalf("run %d: state divergence", i)
		}
	}
	stats := prog.DrainStats()
	if stats.FastRuns != 100 {
		t.Errorf("fast runs = %d, want 100", stats.FastRuns)
	}
	if stats.PoolRecycles == 0 {
		t.Errorf("expected pooled machine reuse across 100 runs")
	}
}

// TestOOGSweepDifferential aborts Transfer at every possible gas limit
// and requires both engines to agree on the error, the exact GasUsed
// at the abort point, and the partial state left behind. After each
// abort the same pooled Program must still produce a clean reference
// run, proving aborts cannot leak partial values through the pool.
func TestOOGSweepDifferential(t *testing.T) {
	in, prog, chk := ftFixture(t)

	// Reference run to learn the full gas cost.
	stRef := freshState(t, in, chk)
	ctxRef := diffCtx(stRef, 0, 1_000_000)
	resRef, err := in.Run(ctxRef, "Transfer", transferArgs(1))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	fullGas := resRef.GasUsed
	if fullGas == 0 || fullGas > 500 {
		t.Fatalf("implausible reference gas %d", fullGas)
	}

	for limit := uint64(1); limit <= fullGas; limit++ {
		compareRuns(t, in, prog, chk, "Transfer", transferArgs(1), 0, limit)

		// Pool-leak probe: a clean run right after the abort must match
		// the unconstrained reference exactly.
		stProbe := freshState(t, in, chk)
		ctxProbe := diffCtx(stProbe, 0, 1_000_000)
		resProbe, err := prog.Run(ctxProbe, "Transfer", transferArgs(1))
		if err != nil {
			t.Fatalf("limit %d: probe run failed: %v", limit, err)
		}
		if resProbe.GasUsed != fullGas {
			t.Fatalf("limit %d: probe gas %d, want %d", limit, resProbe.GasUsed, fullGas)
		}
		if !msgsEqual(resProbe.Events, resRef.Events) {
			t.Fatalf("limit %d: probe events diverge from reference", limit)
		}
		if !stProbe.Equal(stRef) {
			t.Fatalf("limit %d: probe state diverges from reference", limit)
		}
	}
}

// TestCompiledAllocCeiling pins the steady-state allocation budget of
// the fused Transfer fast path.
func TestCompiledAllocCeiling(t *testing.T) {
	in, prog, chk := ftFixture(t)
	st := freshState(t, in, chk)
	args := transferArgs(1)
	ctx := diffCtx(st, 0, 1_000_000)
	// Warm the pool, intern table, and implicit-param boxes.
	for i := 0; i < 50; i++ {
		if _, err := prog.Run(ctx, "Transfer", args); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	const ceiling = 5
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := prog.Run(ctx, "Transfer", args); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs > ceiling {
		t.Errorf("compiled Transfer allocates %.1f per op, ceiling %d", allocs, ceiling)
	}
}

// TestCorpusCompilesWithoutFallback pins the answer to "does
// production ever take Program.Run's interpreter branch": no. Every
// transition of every corpus contract compiles; one that stops
// compiling fails here by name.
func TestCorpusCompilesWithoutFallback(t *testing.T) {
	corpus := contracts.All()
	nTransitions := 0
	for _, entry := range corpus {
		_, prog, chk := corpusFixture(t, entry.Name)
		nTransitions += len(chk.Module.Contract.Transitions)
		if _, fallbacks, _ := prog.CompileCounts(); fallbacks == 0 {
			continue
		}
		for _, tr := range chk.Module.Contract.Transitions {
			if compiled, _ := prog.CompiledTransition(tr.Name); !compiled {
				t.Errorf("%s.%s falls back to the interpreter", entry.Name, tr.Name)
			}
		}
	}
	if len(corpus) != 49 || nTransitions != 153 {
		t.Errorf("corpus is %d contracts / %d transitions, want 49 / 153", len(corpus), nTransitions)
	}
}

// rebindSrc holds the one legal construct compileTransition refuses: a
// closure followed by a rebind of a name it captured, in the same
// frame. The interpreter's closure sees the rebound value (its
// environment is captured by reference), a compiled closure would see
// the snapshot, so the transition is left to the interpreter.
const rebindSrc = `
scilla_version 0

contract Rebind ()

field total : Uint128 = Uint128 0
field seen : Map ByStr20 Uint128 = Emp ByStr20 Uint128

transition Bump (x : Uint128)
  a = x;
  f = fun (y : Uint128) => builtin add a y;
  a = Uint128 7;
  v = f a;
  total := v;
  seen[_sender] := v
end
`

// TestFallbackMatchesInterpreter reaches Program.Run's interpreter
// branch: the transition type-checks, does not compile, and a run of
// the compiled program equals the interpreter's in result, gas and
// state.
func TestFallbackMatchesInterpreter(t *testing.T) {
	m, err := parser.ParseModule(rebindSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	chk, err := typecheck.Check(m)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	in, err := eval.New(chk, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	prog := compile.New(in)
	if compiled, _ := prog.CompiledTransition("Bump"); compiled {
		t.Fatal("Bump compiled: the closure-then-rebind guard no longer fires, so this test no longer reaches the fallback")
	}
	args := map[string]value.Value{"x": value.Uint128(5)}
	for _, limit := range []uint64{1_000_000, 10} {
		compareRuns(t, in, prog, chk, "Bump", args, 0, limit)
	}
	if runs := prog.DrainStats().FallbackRuns; runs != 2 {
		t.Errorf("fallback runs = %d, want 2", runs)
	}
	// The rebound value is the one the closure sees: 7 + 7, not 5 + 7.
	st := freshState(t, in, chk)
	if _, err := prog.Run(diffCtx(st, 0, 1_000_000), "Bump", args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := st.Fields["total"]; !value.Equal(got, value.Uint128(14)) {
		t.Errorf("total = %s, want 14", got)
	}
}
