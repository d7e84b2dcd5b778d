// Package compile lowers typechecked Scilla transitions into chains
// of Go closures executed against fixed slot frames. All name lookups,
// field value types, map key canonicalisation, and pattern-match
// shapes are resolved once at compile time, so the execute path walks
// no AST and consults no map[string]value.Value environments. Gas is
// charged at exactly the interpreter's sequence points, making
// compiled execution bit-identical to eval.Interpreter.Run — including
// the final GasUsed of a transaction that aborts mid-transition.
//
// Compilation is best-effort per transition: any construct the
// compiler cannot statically resolve makes that one transition fall
// back to the interpreter, never changing observable behaviour.
package compile

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

type (
	// stmtOp executes one compiled statement against the machine.
	stmtOp func(m *mach) error
	// exprOp evaluates one compiled expression.
	exprOp func(m *mach) (value.Value, error)
	// getter reads an already-bound value; it cannot fail because the
	// compiler only emits getters for statically-resolved names.
	getter func(m *mach) value.Value
	// matcher tries a compiled pattern against a value, binding
	// sub-patterns into the machine's slots on success.
	matcher func(m *mach, v value.Value) bool
)

// paramSpec is one declared transition parameter with its target slot.
type paramSpec struct {
	name string
	ty   ast.Type
	slot int
}

// proc is one compiled transition.
type proc struct {
	name   string
	params []paramSpec
	code   []stmtOp
	// fastPath reports that at least one Option fusion engaged (the
	// load-guard-update shape of transfer-like transitions).
	fastPath bool
}

// Program holds the compiled form of one contract: a per-transition
// compiled-procedure cache plus a pool of execution machines. A
// Program is immutable after New and safe for concurrent use; each
// Run checks a machine out of the pool.
type Program struct {
	in       *eval.Interpreter
	procs    map[string]*proc
	fallback []string // transitions that could not be compiled
	maxSlots int
	pool     sync.Pool

	fastRuns     atomic.Uint64
	genericRuns  atomic.Uint64
	fallbackRuns atomic.Uint64
	poolGets     atomic.Uint64
	poolNews     atomic.Uint64
}

// New compiles every transition of the interpreter's contract. It
// never fails: transitions that cannot be compiled are recorded as
// fallbacks and served by the interpreter at run time.
func New(in *eval.Interpreter) *Program {
	p := &Program{in: in, procs: make(map[string]*proc)}
	contract := &in.Checked().Module.Contract
	for i := range contract.Transitions {
		tr := &contract.Transitions[i]
		pr, nslots, err := compileTransition(in, tr)
		if err != nil {
			p.fallback = append(p.fallback, tr.Name)
			continue
		}
		p.procs[tr.Name] = pr
		if nslots > p.maxSlots {
			p.maxSlots = nslots
		}
	}
	p.pool.New = func() any {
		p.poolNews.Add(1)
		return &mach{
			slots:  make([]value.Value, p.maxSlots),
			ffound: make([]bool, p.maxSlots),
			cks:    make([]string, 0, 4),
			keyBuf: make([]value.Value, 0, 4),
			ikeys:  make(map[string]string),
		}
	}
	return p
}

// Run executes the named transition, charging gas and producing
// results bit-identically to (*eval.Interpreter).Run. The Result is
// returned by value so pooled machine state is never aliased by the
// caller.
func (p *Program) Run(ctx *eval.Context, transition string, args map[string]value.Value) (eval.Result, error) {
	pr := p.procs[transition]
	if pr == nil {
		p.fallbackRuns.Add(1)
		r, err := p.in.Run(ctx, transition, args)
		if err != nil {
			return eval.Result{}, err
		}
		return *r, nil
	}
	ctx.GasUsed = 0
	p.poolGets.Add(1)
	m := p.pool.Get().(*mach)
	m.ctx = ctx
	m.slots[slotSender] = boxByStr(&m.senderRaw, &m.senderBox, ctx.Sender)
	m.slots[slotOrigin] = boxByStr(&m.originRaw, &m.originBox, ctx.Origin)
	m.slots[slotAmount] = m.boxAmount(ctx.Amount)
	for i := range pr.params {
		ps := &pr.params[i]
		v, ok := args[ps.name]
		if !ok {
			m.clearForPool()
			p.pool.Put(m)
			return eval.Result{}, fmt.Errorf("missing argument %s for transition %s", ps.name, transition)
		}
		if !v.Type().Equal(ps.ty) {
			m.clearForPool()
			p.pool.Put(m)
			return eval.Result{}, fmt.Errorf("argument %s has type %s, want %s", ps.name, v.Type(), ps.ty)
		}
		m.slots[ps.slot] = v
	}
	err := runOps(m, pr.code)
	res := m.res
	m.clearForPool()
	p.pool.Put(m)
	if err != nil {
		return eval.Result{}, err
	}
	res.GasUsed = ctx.GasUsed
	if pr.fastPath {
		p.fastRuns.Add(1)
	} else {
		p.genericRuns.Add(1)
	}
	return res, nil
}

// CompiledTransition reports whether the named transition runs
// compiled, and whether its compiled form engaged a fused fast path.
func (p *Program) CompiledTransition(name string) (compiled, fastPath bool) {
	pr := p.procs[name]
	if pr == nil {
		return false, false
	}
	return true, pr.fastPath
}

// CompileCounts summarises the compile-time outcome: transitions
// compiled, transitions falling back to the interpreter, and compiled
// transitions with a fused fast path.
func (p *Program) CompileCounts() (compiled, fallbacks, fastPaths int) {
	for _, pr := range p.procs {
		if pr.fastPath {
			fastPaths++
		}
	}
	return len(p.procs), len(p.fallback), fastPaths
}

// RuntimeStats are cumulative execution counters; see DrainStats.
type RuntimeStats struct {
	FastRuns     uint64 // runs served by a compiled proc with a fused fast path
	GenericRuns  uint64 // runs served by a compiled proc without fusion
	FallbackRuns uint64 // runs served by the interpreter fallback
	PoolRecycles uint64 // machine checkouts served by reuse rather than allocation
}

// DrainStats atomically swaps the runtime counters to zero and returns
// the drained values, for periodic metric collection.
func (p *Program) DrainStats() RuntimeStats {
	gets := p.poolGets.Swap(0)
	news := p.poolNews.Swap(0)
	recycles := uint64(0)
	if gets > news {
		recycles = gets - news
	}
	return RuntimeStats{
		FastRuns:     p.fastRuns.Swap(0),
		GenericRuns:  p.genericRuns.Swap(0),
		FallbackRuns: p.fallbackRuns.Swap(0),
		PoolRecycles: recycles,
	}
}
