package chain

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
)

// Account is a native-token account with the relaxed nonce mechanism of
// Sec. 4.2.1: transactions must carry strictly increasing nonces, but
// gaps are allowed (Paxos-ballot style), so disjoint nonce sets from
// the same user can be processed in different shards in parallel.
type Account struct {
	Balance    *big.Int
	Nonce      uint64 // highest nonce committed so far
	IsContract bool
}

// Copy deep-copies the account.
func (a *Account) Copy() *Account {
	return &Account{
		Balance:    new(big.Int).Set(a.Balance),
		Nonce:      a.Nonce,
		IsContract: a.IsContract,
	}
}

// Accounts is the global account table. Storage lives behind an
// AccountBackend: the default is a resident map, and internal/pager
// swaps in a disk-backed paged backend (SetBackend) so the table can
// exceed RAM.
type Accounts struct {
	mu sync.RWMutex
	b  AccountBackend
}

// NewAccounts creates an empty account table on the default resident
// map backend.
func NewAccounts() *Accounts {
	return &Accounts{b: make(mapBackend)}
}

// NewAccountsOn creates an empty account table on an explicit backend.
func NewAccountsOn(b AccountBackend) *Accounts {
	if b == nil {
		return NewAccounts()
	}
	return &Accounts{b: b}
}

// Create adds an account with the given initial balance. It replaces
// any existing account.
func (as *Accounts) Create(addr Address, balance uint64, isContract bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.b.Store(addr, &Account{
		Balance:    new(big.Int).SetUint64(balance),
		IsContract: isContract,
	})
}

// Put installs an account with explicit balance, nonce, and contract
// flag, replacing any existing entry. Snapshot restore uses it to
// reconstruct the exact committed table.
func (as *Accounts) Put(addr Address, balance *big.Int, nonce uint64, isContract bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.b.Store(addr, &Account{
		Balance:    new(big.Int).Set(balance),
		Nonce:      nonce,
		IsContract: isContract,
	})
}

// Range calls f for every account until f returns false. The iteration
// order is unspecified and f receives the live account — it must not
// mutate it or retain it past the call (the table's lock is held). A
// paged backend streams pages through the call, so Range never
// materialises the full set.
func (as *Accounts) Range(f func(Address, *Account) bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	as.b.Range(f)
}

// Each calls f for every address of addrs that holds an account, in
// the order given, on the same terms as Range: f receives the live
// account and must not mutate it, and may keep what it points to only
// while nothing commits to the table.
func (as *Accounts) Each(addrs []Address, f func(Address, *Account)) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, addr := range addrs {
		if acc := as.b.Load(addr); acc != nil {
			f(addr, acc)
		}
	}
}

// Len returns the number of accounts.
func (as *Accounts) Len() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.b.Len()
}

// Get returns a copy of the account, or nil if absent.
func (as *Accounts) Get(addr Address) *Account {
	as.mu.RLock()
	defer as.mu.RUnlock()
	a := as.b.Load(addr)
	if a == nil {
		return nil
	}
	return a.Copy()
}

// NonceOf returns the committed nonce of an account without copying it
// (the dispatch hot path only needs the nonce, and Get's defensive copy
// costs three allocations per transaction).
func (as *Accounts) NonceOf(addr Address) (uint64, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	a := as.b.Load(addr)
	if a == nil {
		return 0, false
	}
	return a.Nonce, true
}

// IsContract reports whether the address holds a contract.
func (as *Accounts) IsContract(addr Address) bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	a := as.b.Load(addr)
	return a != nil && a.IsContract
}

// Exists reports whether the account exists.
func (as *Accounts) Exists(addr Address) bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.b.Load(addr) != nil
}

// Addresses returns all addresses, sorted.
func (as *Accounts) Addresses() []Address {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]Address, 0, as.b.Len())
	as.b.Range(func(a Address, _ *Account) bool {
		out = append(out, a)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 20; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Apply commits an account delta: balance changes (commutative) and
// nonce advancement (merged by maximum, per the relaxed nonce rule). It
// is all or nothing: every resulting balance is checked before any
// account is touched, so a delta that would overdraw one account leaves
// the table as it was.
func (as *Accounts) Apply(d *AccountDelta) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for addr, bd := range d.BalanceDeltas {
		if bd.Sign() >= 0 {
			continue
		}
		if acc := as.b.Load(addr); acc == nil || acc.Balance.CmpAbs(bd) < 0 {
			return fmt.Errorf("account %s balance would go negative", addr)
		}
	}
	for addr, bd := range d.BalanceDeltas {
		acc := as.b.Mutate(addr)
		if acc == nil {
			acc = &Account{Balance: new(big.Int)}
			as.b.Store(addr, acc)
		}
		acc.Balance.Add(acc.Balance, bd)
	}
	for addr, n := range d.Nonces {
		acc := as.b.Mutate(addr)
		if acc == nil {
			continue
		}
		if n > acc.Nonce {
			acc.Nonce = n
		}
	}
	return nil
}

// Copy deep-copies the whole table onto a fresh resident map backend.
// This materialises every account — a paged source backend streams all
// its pages through the copy — so it is strictly a test/debug helper;
// read-only consumers should take ReadOnly instead.
func (as *Accounts) Copy() *Accounts {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := NewAccounts()
	as.b.Range(func(a Address, acc *Account) bool {
		out.b.Store(a, acc.Copy())
		return true
	})
	return out
}

// AccountDelta is a shard's contribution to the account table for one
// epoch: commutative balance deltas plus per-sender highest nonces.
type AccountDelta struct {
	BalanceDeltas map[Address]*big.Int
	Nonces        map[Address]uint64
}

// NewAccountDelta creates an empty delta.
func NewAccountDelta() *AccountDelta {
	return &AccountDelta{
		BalanceDeltas: make(map[Address]*big.Int),
		Nonces:        make(map[Address]uint64),
	}
}

// AddBalance accumulates a (possibly negative) balance delta.
func (d *AccountDelta) AddBalance(addr Address, delta *big.Int) {
	cur, ok := d.BalanceDeltas[addr]
	if !ok {
		cur = new(big.Int)
		d.BalanceDeltas[addr] = cur
	}
	cur.Add(cur, delta)
}

// BumpNonce records a committed nonce for a sender.
func (d *AccountDelta) BumpNonce(addr Address, nonce uint64) {
	if nonce > d.Nonces[addr] {
		d.Nonces[addr] = nonce
	}
}

// Merge folds another delta into this one (deltas from different
// shards commute).
func (d *AccountDelta) Merge(o *AccountDelta) {
	for a, bd := range o.BalanceDeltas {
		d.AddBalance(a, bd)
	}
	for a, n := range o.Nonces {
		d.BumpNonce(a, n)
	}
}
