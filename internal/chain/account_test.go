package chain

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// liveHeap returns the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// tableAddrs returns n distinct addresses.
func tableAddrs(n int) []Address {
	addrs := make([]Address, n)
	for i := range addrs {
		addrs[i] = AddrFromUint(uint64(i + 1))
	}
	return addrs
}

// TestAccountTableRetention puts a ceiling on what an account costs a
// role once created: at epoch_cf_bigstate's population (100k accounts)
// at most 80 bytes stay on the heap per account — its index slot and
// its 32-byte row. A map of pointers to accounts holding *big.Int
// balances kept ~116.
func TestAccountTableRetention(t *testing.T) {
	const accounts, ceiling = 100_000, 80
	if sz := unsafe.Sizeof(Account{}); sz != 32 {
		t.Errorf("account row is %d bytes, want 32", sz)
	}
	addrs := tableAddrs(accounts)
	before := liveHeap()
	as := NewAccounts()
	for i, a := range addrs {
		as.Create(a, uint64(i)<<20, false)
	}
	perAccount := float64(liveHeap()-before) / accounts
	runtime.KeepAlive(as)
	runtime.KeepAlive(addrs)
	t.Logf("%d accounts: %.1f B per account retained", as.Len(), perAccount)
	if perAccount > ceiling {
		t.Errorf("table retains %.1f B per account, ceiling %d", perAccount, ceiling)
	}
}

// TestAccountReadsAllocNothing: Get, NonceOf and Each hand out row
// values, so no read copies anything onto the heap.
func TestAccountReadsAllocNothing(t *testing.T) {
	addrs := tableAddrs(1000)
	as := NewAccounts()
	for _, a := range addrs {
		as.Create(a, 1<<40, false)
	}
	var sum uint64
	visit := func(_ Address, acc Account) bool { sum += acc.Balance.Lo; return true }
	for name, f := range map[string]func(){
		"Get": func() {
			acc, _ := as.Get(addrs[7])
			sum += acc.Balance.Lo
		},
		"NonceOf": func() {
			n, _ := as.NonceOf(addrs[7])
			sum += n
		},
		"Range": func() { as.Range(visit) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
	if sum == 0 {
		t.Fatal("reads saw no balance")
	}
}

// TestBalanceMatchesBigInt: a Balance formats, converts and adds as
// big.Int does for the same value, across both words.
func TestBalanceMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(9), new(big.Int).SetUint64(1<<64 - 1),
		new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Sub(two128, big.NewInt(1)),
		new(big.Int).Exp(big.NewInt(10), big.NewInt(19), nil),
		new(big.Int).Exp(big.NewInt(10), big.NewInt(38), nil),
	}
	for i := 0; i < 500; i++ {
		vals = append(vals, new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(r.Intn(128)+1))))
	}
	var z big.Int
	for _, v := range vals {
		b, ok := absBalance(v)
		if !ok {
			t.Fatalf("absBalance(%s) refused", v)
		}
		if got, want := string(b.AppendDecimal(nil)), v.String(); got != want {
			t.Fatalf("AppendDecimal = %s, want %s", got, want)
		}
		if b.Big(&z).Cmp(v) != 0 {
			t.Fatalf("Big = %s, want %s", &z, v)
		}
		d := new(big.Int).Rand(r, two128)
		if r.Intn(2) == 0 {
			d.Neg(d)
		}
		sum := new(big.Int).Add(v, d)
		got, err := b.add(d)
		switch {
		case sum.Sign() < 0:
			if !errors.Is(err, ErrBalanceNegative) {
				t.Fatalf("%s + %s = %v, want ErrBalanceNegative", v, d, err)
			}
		case sum.Cmp(two128) >= 0:
			if !errors.Is(err, ErrBalanceOverflow) {
				t.Fatalf("%s + %s = %v, want ErrBalanceOverflow", v, d, err)
			}
		case err != nil || got.Big(&z).Cmp(sum) != 0:
			t.Fatalf("%s + %s = %s, %v; want %s", v, d, got, err, sum)
		}
	}
	if _, ok := absBalance(two128); ok {
		t.Error("absBalance(2^128) accepted")
	}
	// A delta as wide as 2^128 or wider fails on either side.
	if _, err := BalanceOf(5).add(new(big.Int).Neg(two128)); !errors.Is(err, ErrBalanceNegative) {
		t.Errorf("5 - 2^128 = %v, want ErrBalanceNegative", err)
	}
	if _, err := (Balance{}).add(two128); !errors.Is(err, ErrBalanceOverflow) {
		t.Errorf("0 + 2^128 = %v, want ErrBalanceOverflow", err)
	}
}
