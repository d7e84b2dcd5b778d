package trie

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// The benchmarks below use only the exported API, but for the load rows
// of BenchmarkTrieLoad, which need Load and the sort StateRoots.Load
// runs; the rest run unchanged against earlier versions of the package.

// addr is a hashed 20-byte address, like chain.AddrFromUint's.
func addr(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	h := sha256.Sum256(b[:])
	return h[:20]
}

// rawKeys are account keys, "a" ‖ address; hexKeys one token
// contract's balance entries, field key ‖ 0x1f ‖ "b:0x" ‖ hex address.
func rawKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = append([]byte("a"), addr(i)...)
	}
	return keys
}

func hexKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("c%s\x1fbalances\x1fb:0x%x", addr(-1), addr(i)))
	}
	return keys
}

// BenchmarkTrieLoad builds a trie of 100k account leaves and hashes it
// once, as a role does at provisioning: key by key with Put, and by one
// Load of the leaves, sorted first, as StateRoots.Load sorts them.
// retained-B/leaf is what the last trie built keeps on the heap after a
// collection.
func BenchmarkTrieLoad(b *testing.B) {
	keys := rawKeys(100_000)
	h := sha256.Sum256([]byte("v"))
	for _, build := range []struct {
		name string
		trie func() *Trie
	}{
		{"put", func() *Trie {
			tr := &Trie{}
			for _, k := range keys {
				tr.Put(k, h)
			}
			return tr
		}},
		{"load", func() *Trie {
			leaves := make([]Leaf, len(keys))
			for i, k := range keys {
				leaves[i] = Leaf{Key: k, Hash: h}
			}
			sortLeaves(leaves, make([]Leaf, len(leaves)), 0)
			return Load(leaves)
		}},
	} {
		b.Run(build.name, func(b *testing.B) {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap0, alloc0, mallocs0 := ms.HeapAlloc, ms.TotalAlloc, ms.Mallocs
			b.ResetTimer()
			var tr *Trie
			for i := 0; i < b.N; i++ {
				tr = build.trie()
				tr.Root()
			}
			b.StopTimer()
			leaves := float64(b.N * len(keys))
			runtime.ReadMemStats(&ms)
			alloc, mallocs := ms.TotalAlloc-alloc0, ms.Mallocs-mallocs0
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(tr)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/leaves, "ns/leaf")
			b.ReportMetric(float64(alloc)/leaves, "B/leaf")
			b.ReportMetric(float64(mallocs)/leaves, "allocs/leaf")
			b.ReportMetric(float64(ms.HeapAlloc-heap0)/float64(len(keys)), "retained-B/leaf")
		})
	}
	runtime.KeepAlive(keys)
}

// BenchmarkTrieEpoch is one epoch's root: 500 of the trie's leaves
// overwritten, spread over the whole key space, then Root. The 100k
// rows are the per-epoch account and map-entry cost of
// epoch_cf_bigstate's state size; 10k and 1M show how it scales.
func BenchmarkTrieEpoch(b *testing.B) {
	const touched = 500
	for _, shape := range []struct {
		name string
		keys func(int) [][]byte
	}{{"raw", rawKeys}, {"hex", hexKeys}} {
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/keys=%d", shape.name, n), func(b *testing.B) {
				keys := shape.keys(n)
				tr := &Trie{}
				for i, k := range keys {
					tr.Put(k, sha256.Sum256(k[:i%len(k)]))
				}
				tr.Root()
				b.ReportAllocs()
				b.ResetTimer()
				var epoch [8]byte
				for i := 0; i < b.N; i++ {
					binary.BigEndian.PutUint64(epoch[:], uint64(i))
					h := sha256.Sum256(epoch[:])
					for j := 0; j < touched; j++ {
						tr.Put(keys[j*(n/touched)], h)
					}
					tr.Root()
				}
			})
		}
	}
}
