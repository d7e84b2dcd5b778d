package shard

import (
	"math/big"
	"runtime"
	"testing"

	"cosplit/internal/chain"
)

// TestTouchAccountAllocs: re-committing an account reads the live one
// in place and builds its key and leaf preimage in the trie's scratch,
// so overwriting a leaf allocates nothing and inserting one only grows
// the trie's pages now and then. An absent account still loses its leaf.
func TestTouchAccountAllocs(t *testing.T) {
	const users, fresh = 20_000, 10_000
	n := NewNetwork(WithShards(3))
	addrs := make([]chain.Address, users+fresh)
	for i := range addrs {
		addrs[i] = chain.AddrFromUint(uint64(i + 1))
	}
	for _, a := range addrs[:users] {
		n.CreateUser(a, 1000)
	}
	// Created in the table only: their leaves are not in the trie yet.
	for _, a := range addrs[users:] {
		n.Accounts.Create(a, 1000, false)
	}
	n.StateRoot()

	i := 0
	overwrite := testing.AllocsPerRun(1000, func() {
		n.touchAccount(addrs[i%users])
		i++
	})
	// AllocsPerRun rounds down to a whole number; the amortised insert
	// cost is a fraction of one.
	leaves := n.roots.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, a := range addrs[users:] {
		n.touchAccount(a)
	}
	runtime.ReadMemStats(&after)
	insert := float64(after.Mallocs-before.Mallocs) / fresh
	if got := n.roots.Len(); got != leaves+fresh {
		t.Fatalf("%d leaves after touching %d new accounts, want %d", got, fresh, leaves+fresh)
	}
	t.Logf("touchAccount: %.3f allocations to overwrite a leaf, %.4f to insert one", overwrite, insert)
	if overwrite != 0 {
		t.Errorf("overwriting an account leaf allocates %.3f times, want 0", overwrite)
	}
	if insert >= 0.1 {
		t.Errorf("inserting an account leaf allocates %.4f times amortised, want < 0.1", insert)
	}

	// A leaf whose account is not in the table goes.
	gone := chain.AddrFromUint(1 << 40)
	n.roots.TouchAccount(gone, &chain.Account{Balance: big.NewInt(5)})
	n.touchAccount(gone)
	if got := n.roots.Len(); got != leaves+fresh {
		t.Errorf("touching an absent account left %d leaves, want %d", got, leaves+fresh)
	}
}
