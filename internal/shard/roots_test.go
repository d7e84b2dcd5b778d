package shard

import (
	"runtime"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/trie"
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
	n.roots.TouchAccount(gone, chain.Account{Balance: chain.BalanceOf(5)})
	n.touchAccount(gone)
	if got := n.roots.Len(); got != leaves+fresh {
		t.Errorf("touching an absent account left %d leaves, want %d", got, leaves+fresh)
	}
}

// TestTouchEntryAllocs: re-committing a one-key map entry builds its
// trie key from the keypath its delta carries and finds the entry by
// that keypath, so overwriting an existing entry's leaf allocates
// nothing. Nested entries, whose ancestors' keys are cut from the
// keypath at its separators (a String key holding the separator byte
// renders it escaped), keep the root a fresh rendering of the state
// gives through inserts and deletes.
func TestTouchEntryAllocs(t *testing.T) {
	const holders = 10_000
	addr := chain.AddrFromUint(7)
	types := map[string]ast.Type{
		"balances": ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128},
		"nested": ast.MapType{Key: ast.TyString,
			Val: ast.MapType{Key: ast.TyString, Val: ast.TyUint128}},
	}
	st := eval.NewMemState(types)
	balances := value.NewMap(ast.TyByStr20, ast.TyUint128)
	keys := make([]value.Value, holders)
	for i := range keys {
		a := chain.AddrFromUint(uint64(i + 1))
		keys[i] = value.ByStr{Ty: ast.TyByStr20, B: a[:]}
		balances.Set(keys[i], value.Uint128(uint64(i)))
	}
	st.Fields["balances"] = balances
	st.Fields["nested"] = value.NewMap(ast.TyString, types["nested"].(ast.MapType).Val)
	var roots trie.StateRoots
	roots.PutContractState(addr, st)
	fresh := func() string {
		var r trie.StateRoots
		r.PutContractState(addr, st)
		return r.Root()
	}

	keypaths := make([]string, holders)
	for i, k := range keys {
		keypaths[i] = chain.Keypath([]value.Value{k})
		balances.Set(k, value.Uint128(uint64(2*i)))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		roots.TouchEntry(addr, "balances", keypaths[i%holders], st)
		i++
	})
	t.Logf("TouchEntry: %.3f allocations to overwrite a one-key entry's leaf", allocs)
	if allocs != 0 {
		t.Errorf("overwriting a one-key entry's leaf allocates %.3f times, want 0", allocs)
	}
	for j := i; j < holders; j++ {
		roots.TouchEntry(addr, "balances", keypaths[j], st)
	}
	if got, want := roots.Root(), fresh(); got != want {
		t.Fatalf("root after overwrites %s, fresh rendering %s", got, want)
	}

	nested := st.Fields["nested"].(*value.Map)
	touch := func(outer, inner string) {
		ks := []value.Value{value.Str{S: outer}, value.Str{S: inner}}
		roots.TouchEntry(addr, "nested", chain.Keypath(ks), st)
		if got, want := roots.Root(), fresh(); got != want {
			t.Fatalf("nested[%q][%q]: root %s, fresh rendering %s", outer, inner, got, want)
		}
	}
	for _, outer := range []string{"a\x1fs:b", "a", "b\x1f"} {
		in := value.NewMap(ast.TyString, ast.TyUint128)
		in.Set(value.Str{S: "c\x1fs:d"}, value.Uint128(1))
		nested.Set(value.Str{S: outer}, in)
		touch(outer, "c\x1fs:d")
		in.Delete(value.Str{S: "c\x1fs:d"}) // leaves an empty inner map
		touch(outer, "c\x1fs:d")
		in.Set(value.Str{S: "e"}, value.Uint128(2))
		touch(outer, "e")
	}
	nested.Delete(value.Str{S: "a"})
	touch("a", "e")
}
