package value_test

import (
	"runtime"
	"testing"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

// BenchmarkMapEntries builds a 100k-entry ByStr32 → ByStr20 map and
// reads every entry back: the time and allocations of the pass, and the
// bytes the map retains per entry.
func BenchmarkMapEntries(b *testing.B) {
	const entries = 100_000
	b.ReportAllocs()
	var retained uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		m := value.NewMap(ast.PrimType{Kind: ast.ByStr32}, ast.TyByStr20)
		for j := 0; j < entries; j++ {
			k, v := entryKV(j)
			m.Set(k, v)
		}
		for j := 0; j < entries; j++ {
			k, _ := entryKV(j)
			if _, ok := m.Get(k); !ok {
				b.Fatalf("entry %d missing", j)
			}
		}
		b.StopTimer()
		retained += liveHeap() - before
		runtime.KeepAlive(m)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N)/entries, "B/entry")
}
