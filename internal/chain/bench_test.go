package chain

import (
	"runtime"
	"testing"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

func benchOverlay() (*Overlay, []string, []value.Value) {
	types := map[string]ast.Type{
		"balances": ast.MapType{Key: ast.TyByStr20, Val: ast.TyUint128},
	}
	base := eval.NewMemState(types)
	base.Fields["balances"] = value.NewMap(ast.TyByStr20, ast.TyUint128)
	keys := []value.Value{AddrFromUint(42).Value()}
	return NewOverlay(base, types), eval.CanonicalKeys(nil, keys), keys
}

func BenchmarkKeypath1(b *testing.B) {
	_, _, keys := benchOverlay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Keypath(keys) == "" {
			b.Fatal("empty keypath")
		}
	}
}

func BenchmarkKeypath2(b *testing.B) {
	keys := []value.Value{AddrFromUint(7).Value(), AddrFromUint(9).Value()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Keypath(keys) == "" {
			b.Fatal("empty keypath")
		}
	}
}

func BenchmarkOverlayMapSet(b *testing.B) {
	ov, cks, keys := benchOverlay()
	v := value.Uint128(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ov.MapSet("balances", cks, keys, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayReadModifyWrite exercises the canonical in-shard
// access pattern: MapGet followed by MapSet of the same keys.
func BenchmarkOverlayReadModifyWrite(b *testing.B) {
	ov, cks, keys := benchOverlay()
	v := value.Uint128(1)
	if err := ov.MapSet("balances", cks, keys, v); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ov.MapGet("balances", cks, keys); err != nil {
			b.Fatal(err)
		}
		if err := ov.MapSet("balances", cks, keys, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccountTable creates 100k accounts and reads each back. It
// reports what the table keeps alive per account beside the time and
// allocations of the whole pass.
func BenchmarkAccountTable(b *testing.B) {
	const accounts = 100_000
	addrs := tableAddrs(accounts)
	b.ReportAllocs()
	var retained uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		as := NewAccounts()
		for j, a := range addrs {
			as.Create(a, uint64(j), false)
		}
		for _, a := range addrs {
			if _, ok := as.Get(a); !ok {
				b.Fatalf("account %s missing", a)
			}
		}
		b.StopTimer()
		retained += liveHeap() - before
		runtime.KeepAlive(as)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N)/accounts, "B/account")
}
