package chain

import (
	"fmt"
	"sync"

	"cosplit/internal/core/analysis"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/compile"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/parser"
	"cosplit/internal/scilla/typecheck"
	"cosplit/internal/scilla/value"
)

// Contract is a deployed contract: its checked code, immutable
// parameters, canonical state, and (optionally) its sharding signature.
type Contract struct {
	Addr    Address
	Checked *typecheck.Checked
	Interp  *eval.Interpreter
	// Compiled is the closure-chain compiled form of the contract's
	// transitions, built once at deployment; transitions the compiler
	// cannot handle transparently fall back to Interp.
	Compiled *compile.Program
	// Sig is the validated sharding signature; nil means the contract
	// uses the default (baseline) sharding strategy.
	Sig    *signature.Signature
	Params map[string]value.Value
	// State is the canonical contract state, advanced only at epoch
	// boundaries by the DS committee; read it through Snapshot.
	State *eval.MemState
	// mu guards State: Snapshot reads it, ReplaceState installs one.
	mu sync.RWMutex
}

// Deploy runs the full contract-deployment pipeline a miner would run:
// parse, typecheck, construct the interpreter, initialise state, and —
// when a sharding query is supplied — run the CoSplit analysis, derive
// the signature, and (if a proposed signature is attached) validate it.
func Deploy(addr Address, source string, params map[string]value.Value, dep *Deployment) (*Contract, error) {
	m, err := parser.ParseModule(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	chk, err := typecheck.Check(m)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	allParams := make(map[string]value.Value, len(params)+1)
	for k, v := range params {
		allParams[k] = v
	}
	allParams["_this_address"] = addr.Value()
	in, err := eval.New(chk, allParams)
	if err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	st := eval.NewMemState(chk.FieldTypes)
	if err := st.InitFrom(in); err != nil {
		return nil, fmt.Errorf("field init: %w", err)
	}
	c := &Contract{
		Addr:     addr,
		Checked:  chk,
		Interp:   in,
		Compiled: compile.New(in),
		Params:   allParams,
		State:    st,
	}
	if dep != nil && dep.Query != nil {
		an, err := analysis.New(chk)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		sums, err := an.AnalyzeAll()
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		sig, err := signature.Derive(sums, *dep.Query)
		if err != nil {
			return nil, fmt.Errorf("signature: %w", err)
		}
		if dep.ProposedSignature != nil && dep.ProposedSignature.String() != sig.String() {
			return nil, fmt.Errorf("proposed sharding signature does not validate")
		}
		c.Sig = sig
	}
	return c, nil
}

// Snapshot returns the canonical state itself, not a copy: a live view
// that is a consistent picture until the owning network's next commit,
// which merges the epoch's deltas into it in place. Callers must not
// mutate it (use an Overlay for execution), must not read it while that
// network commits, and must copy any value they want to keep beyond the
// epoch.
func (c *Contract) Snapshot() *eval.MemState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.State
}

// ReplaceState installs st as the canonical state.
func (c *Contract) ReplaceState(st *eval.MemState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.State = st
}

// Contracts is the global contract registry.
type Contracts struct {
	mu sync.RWMutex
	m  map[Address]*Contract
}

// NewContracts creates an empty registry.
func NewContracts() *Contracts {
	return &Contracts{m: make(map[Address]*Contract)}
}

// Add registers a deployed contract.
func (cs *Contracts) Add(c *Contract) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.m[c.Addr] = c
}

// Get returns the contract at addr, or nil.
func (cs *Contracts) Get(addr Address) *Contract {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.m[addr]
}

// All returns all contracts.
func (cs *Contracts) All() []*Contract {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	out := make([]*Contract, 0, len(cs.m))
	for _, c := range cs.m {
		out = append(out, c)
	}
	return out
}
