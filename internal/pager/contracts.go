package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/wire"
)

// contractBaseBytes is the fixed overhead charged per resident
// contract state (MemState struct, field map header).
const contractBaseBytes = 512

// Pager implements chain.ContractPager: the contract side of the
// shared LRU. A contract's canonical state is one paging unit; while
// under a pager, Contract.State is read and written only with p.mu
// held — the pager's lock is the sole residency authority, so there is
// no lock ordering against the contract's own mutex to get wrong.

// Admit implements chain.ContractPager: it registers a contract whose
// resident state the pager should start tracking (deployment, or
// pager attach). The state is marked dirty — nothing is durable until
// the next flush.
func (p *Pager) Admit(c *chain.Contract) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.contractUnit(c)
	if c.State == nil {
		return
	}
	if p.inLRU(u) {
		p.resident -= u.bytes
	}
	u.bytes = estStateBytes(c.State)
	u.dirty = true
	p.resident += u.bytes
	p.lruFront(u)
	p.evictTo(u)
	p.updateGauges()
}

// Acquire implements chain.ContractPager: it returns the canonical
// state, faulting it from disk if evicted. Mid-run read failures are
// unrecoverable (Snapshot has no error path) and panic with context.
func (p *Pager) Acquire(c *chain.Contract) *eval.MemState {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.contractUnit(c)
	if c.State != nil {
		if !p.inLRU(u) {
			// Resident but uncounted (fresh or rebound unit): admit it to
			// the budget before bumping it.
			u.bytes = estStateBytes(c.State)
			u.dirty = true
			p.resident += u.bytes
		}
		p.hits.Inc()
		p.lruFront(u)
		p.evictTo(u)
		return c.State
	}
	if u.ver == 0 {
		panic(fmt.Sprintf("pager: contract %s evicted with no disk copy", c.Addr))
	}
	start := time.Now()
	st, err := p.readContractState(c, u.ver)
	if err != nil {
		panic(fmt.Sprintf("pager: contract state fault: %v", err))
	}
	c.State = st
	u.bytes = estStateBytes(st)
	u.dirty = false
	p.resident += u.bytes
	p.faults.Inc()
	p.faultTime.ObserveDuration(time.Since(start))
	p.lruFront(u)
	p.evictTo(u)
	p.updateGauges()
	return st
}

// Replace implements chain.ContractPager: it installs st — a recovered
// state, or the state Acquire returned, merged in place by a commit
// phase and possibly evicted since — and marks it dirty.
func (p *Pager) Replace(c *chain.Contract, st *eval.MemState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.contractUnit(c)
	if c.State != nil {
		p.resident -= u.bytes
	}
	c.State = st
	u.bytes = estStateBytes(st)
	u.dirty = true
	p.resident += u.bytes
	p.lruFront(u)
	p.evictTo(u)
	p.updateGauges()
}

// inLRU reports whether u is linked into the LRU list (resident and
// counted).
func (p *Pager) inLRU(u *unit) bool {
	return p.head == u || u.prev != nil || u.next != nil
}

// contractUnit returns (creating if needed) the unit for c, rebinding
// it to c: a recovered cluster replica re-runs genesis, producing new
// Contract values at the same addresses, and the unit must follow the
// live one — an eviction writing through a stale pointer would
// persist a dead replica's state. If the old binding's state was
// resident and counted, the accounting moves with it. Called with
// p.mu held.
func (p *Pager) contractUnit(c *chain.Contract) *unit {
	u := p.contracts[c.Addr]
	if u == nil {
		u = &unit{kind: kindContract, c: c}
		p.contracts[c.Addr] = u
		return u
	}
	if u.c != c {
		if p.inLRU(u) {
			p.lruRemove(u)
			p.resident -= u.bytes
			u.bytes = 0
			u.dirty = false
		}
		u.c = c
	}
	return u
}

// readContractState reads, decodes, and rebuilds one contract's state
// from its page file — the same field-decoding path snapshot restore
// uses, so a faulted state is value-identical to the evicted one and
// roots are preserved by construction.
func (p *Pager) readContractState(c *chain.Contract, ver uint64) (*eval.MemState, error) {
	b, err := os.ReadFile(filepath.Join(p.dir, contractPageName(c.Addr, ver)))
	if err != nil {
		return nil, err
	}
	typ, payload, rest, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgContractPage || len(rest) != 0 {
		return nil, fmt.Errorf("%w: contract page file holds %v record (+%d trailing bytes)", ErrCorruptIndex, typ, len(rest))
	}
	page, err := wire.DecodeContractPage(payload)
	if err != nil {
		return nil, err
	}
	if page.Addr != c.Addr || page.Version != ver {
		return nil, fmt.Errorf("%w: contract page says %s v%d, expected %s v%d",
			ErrCorruptIndex, page.Addr, page.Version, c.Addr, ver)
	}
	st := eval.NewMemState(c.Checked.FieldTypes)
	for name, v := range page.Fields {
		if _, ok := c.Checked.FieldTypes[name]; !ok {
			return nil, fmt.Errorf("%w: contract %s page has unknown field %q", ErrCorruptIndex, c.Addr, name)
		}
		st.Fields[name] = v
	}
	return st, nil
}

// estStateBytes approximates a contract state's resident footprint.
func estStateBytes(st *eval.MemState) int64 {
	n := int64(contractBaseBytes)
	for name, v := range st.Fields {
		n += int64(len(name)) + 48 + estValueBytes(v)
	}
	return n
}

// estValueBytes walks a value, summing struct headers, string bytes,
// big.Int limbs, and map-entry overheads.
func estValueBytes(v value.Value) int64 {
	switch t := v.(type) {
	case value.Int:
		n := int64(64)
		if t.V != nil {
			n += int64(len(t.V.Bits()) * 8)
		}
		return n
	case value.Str:
		return 32 + int64(len(t.S))
	case value.ByStr:
		return 56 + int64(len(t.B))
	case value.BNum:
		n := int64(48)
		if t.V != nil {
			n += int64(len(t.V.Bits()) * 8)
		}
		return n
	case value.ADT:
		n := int64(96) + int64(len(t.TypeName)+len(t.Constr))
		for _, a := range t.Args {
			n += estValueBytes(a)
		}
		return n
	case *value.Map:
		n := int64(96)
		for k, mv := range t.Entries {
			n += int64(2*len(k)) + 96 + estValueBytes(mv)
		}
		for _, kv := range t.KeyVals {
			n += estValueBytes(kv)
		}
		return n
	default:
		return 128
	}
}
