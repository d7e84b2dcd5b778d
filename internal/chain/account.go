package chain

import (
	"fmt"
	"maps"
	"math/big"
	"slices"
	"sync"
)

// Account is a native-token account with the relaxed nonce mechanism of
// Sec. 4.2.1: transactions must carry strictly increasing nonces, but
// gaps are allowed (Paxos-ballot style), so disjoint nonce sets from
// the same user can be processed in different shards in parallel.
//
// An Account is a 32-byte value with no pointers; the table hands out
// copies, never references into its rows.
type Account struct {
	Balance    Balance
	Nonce      uint64 // highest nonce committed so far
	IsContract bool
}

// Accounts is the global account table under one read-write lock: an
// index from address to row, and the rows packed in one slice. Neither
// holds a pointer, so the collector never walks the table. Accounts are
// never removed, so rows only append.
type Accounts struct {
	mu   sync.RWMutex
	idx  map[Address]uint32
	rows []Account
}

// NewAccounts creates an empty account table.
func NewAccounts() *Accounts {
	return &Accounts{idx: make(map[Address]uint32)}
}

// row returns the address's row, appending a zero one if it has none,
// and whether it did. The caller holds the write lock.
func (as *Accounts) row(addr Address) (*Account, bool) {
	i, ok := as.idx[addr]
	if !ok {
		i = uint32(len(as.rows))
		as.idx[addr] = i
		as.rows = append(as.rows, Account{})
	}
	return &as.rows[i], !ok
}

// Create adds an account with the given initial balance. It replaces
// any existing account.
func (as *Accounts) Create(addr Address, balance uint64, isContract bool) {
	as.Put(addr, Account{Balance: BalanceOf(balance), IsContract: isContract})
}

// CreateAll adds an account with the given initial balance for each of
// addrs, replacing any existing one, under one lock, with the index and
// the rows grown once for all of them.
func (as *Accounts) CreateAll(addrs []Address, balance uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	idx := make(map[Address]uint32, len(as.idx)+len(addrs))
	maps.Copy(idx, as.idx)
	as.idx = idx
	as.rows = slices.Grow(as.rows, len(addrs))
	acc := Account{Balance: BalanceOf(balance)}
	for _, addr := range addrs {
		row, _ := as.row(addr)
		*row = acc
	}
}

// Put installs an account, replacing any existing entry. Snapshot
// restore uses it to reconstruct the exact committed table.
func (as *Accounts) Put(addr Address, acc Account) {
	as.mu.Lock()
	defer as.mu.Unlock()
	row, _ := as.row(addr)
	*row = acc
}

// Range calls f for every account until f returns false. The iteration
// order is unspecified. f must not call back into the table (its lock
// is held).
func (as *Accounts) Range(f func(Address, Account) bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for a, i := range as.idx {
		if !f(a, as.rows[i]) {
			return
		}
	}
}

// Len returns the number of accounts.
func (as *Accounts) Len() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return len(as.rows)
}

// Get returns the account, and whether it exists.
func (as *Accounts) Get(addr Address) (Account, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	i, ok := as.idx[addr]
	if !ok {
		return Account{}, false
	}
	return as.rows[i], true
}

// NonceOf returns the committed nonce of an account (the dispatch hot
// path only needs the nonce).
func (as *Accounts) NonceOf(addr Address) (uint64, bool) {
	acc, ok := as.Get(addr)
	return acc.Nonce, ok
}

// IsContract reports whether the address holds a contract.
func (as *Accounts) IsContract(addr Address) bool {
	acc, _ := as.Get(addr)
	return acc.IsContract
}

// Apply commits an account delta: balance changes (commutative) and
// nonce advancement (merged by maximum, per the relaxed nonce rule). It
// is all or nothing: every resulting balance is checked before any
// account is touched, so a delta that would overdraw one account, or
// take one to 2^128, leaves the table as it was. Each row it changes
// is logged in undo first (nil logs nothing), so the block it belongs
// to can still be rolled back after it succeeds.
func (as *Accounts) Apply(d *AccountDelta, undo *Undo) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for addr, bd := range d.BalanceDeltas {
		var cur Balance
		if i, ok := as.idx[addr]; ok {
			cur = as.rows[i].Balance
		}
		if _, err := cur.add(bd); err != nil {
			return fmt.Errorf("account %s: %w", addr, err)
		}
	}
	for addr, bd := range d.BalanceDeltas {
		acc, created := as.row(addr)
		undo.account(as, addr, *acc, created)
		acc.Balance, _ = acc.Balance.add(bd)
	}
	for addr, n := range d.Nonces {
		if i, ok := as.idx[addr]; ok && n > as.rows[i].Nonce {
			undo.account(as, addr, as.rows[i], false)
			as.rows[i].Nonce = n
		}
	}
	return nil
}

// restore puts one logged row back: the row as it was, or no row at
// all. Rows only append, so a created row is the last one by the time
// a newest-first rollback reaches it.
func (as *Accounts) restore(addr Address, prev Account, created bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.idx[addr]
	if created {
		delete(as.idx, addr)
		as.rows = as.rows[:i]
		return
	}
	as.rows[i] = prev
}

// Copy copies the whole table. It is a test/debug helper; read-only
// consumers use Range, Each or Get.
func (as *Accounts) Copy() *Accounts {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return &Accounts{idx: maps.Clone(as.idx), rows: slices.Clone(as.rows)}
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
