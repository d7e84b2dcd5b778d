package trie

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cosplit/internal/chain"
)

func leaf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// rebuild constructs a fresh trie from the model map. Comparing its
// root with the incrementally maintained trie's proves the structure
// is canonical: history (insertion order, deletions, splits,
// collapses) must leave no trace.
func rebuild(model map[string][32]byte) *Trie {
	t := &Trie{}
	for k, v := range model {
		t.Put([]byte(k), v)
	}
	return t
}

func checkAgainstModel(t *testing.T, tr *Trie, model map[string][32]byte) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d keys", tr.Len(), len(model))
	}
	for k, want := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || got != want {
			t.Fatalf("Get(%q) = %x ok=%v, want %x", k, got, ok, want)
		}
	}
	if got, want := tr.Root(), rebuild(model).Root(); got != want {
		t.Fatalf("incremental root %x diverges from fresh rebuild %x", got, want)
	}
	checkEdgeOrder(t, tr)
	checkSlots(t, tr)
}

// checkEdgeOrder asserts the invariant rehash relies on: below every
// node the edge bytes ascend strictly and each is the first byte of the
// child it stands for.
func checkEdgeOrder(t *testing.T, tr *Trie) {
	t.Helper()
	if tr.slots == 0 {
		return
	}
	var walk func(i uint32)
	walk = func(i uint32) {
		n := tr.at(i)
		edges, kids := tr.edgesOf(n), tr.kidsOf(n)
		for j, c := range kids {
			if p := tr.prefix(tr.at(c)); len(p) == 0 || p[0] != edges[j] {
				t.Fatalf("node %q: edge %d is %#x but the child's prefix is %q", tr.prefix(n), j, edges[j], p)
			}
			if j > 0 && edges[j-1] >= edges[j] {
				t.Fatalf("node %q: edges out of order: %x", tr.prefix(n), edges)
			}
			walk(c)
		}
	}
	walk(0)
}

func TestEmptyTrie(t *testing.T) {
	a, b := &Trie{}, &Trie{}
	if a.Root() != b.Root() {
		t.Fatal("empty tries disagree on root")
	}
	if a.Len() != 0 {
		t.Fatalf("empty trie Len = %d", a.Len())
	}
	if a.Delete([]byte("x")) {
		t.Fatal("Delete on empty trie reported a removal")
	}
	b.Put([]byte("k"), leaf("v"))
	if a.Root() == b.Root() {
		t.Fatal("non-empty trie hashes like the empty trie")
	}
	b.Delete([]byte("k"))
	if a.Root() != b.Root() {
		t.Fatal("deleting the only key does not restore the empty root")
	}
}

func TestPrefixKeysCoexist(t *testing.T) {
	// "field" a strict prefix of "fieldX", plus an empty key on the
	// root node itself: all three must hold independent values.
	tr := &Trie{}
	model := map[string][32]byte{
		"":       leaf("root"),
		"field":  leaf("a"),
		"fieldX": leaf("b"),
		"fieldY": leaf("c"),
	}
	for k, v := range model {
		tr.Put([]byte(k), v)
	}
	checkAgainstModel(t, tr, model)

	tr.Delete([]byte("field"))
	delete(model, "field")
	checkAgainstModel(t, tr, model)
}

func TestOverwriteChangesRoot(t *testing.T) {
	tr := &Trie{}
	tr.Put([]byte("k"), leaf("v1"))
	r1 := tr.Root()
	tr.Put([]byte("k"), leaf("v2"))
	if tr.Root() == r1 {
		t.Fatal("overwriting a leaf left the root unchanged")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", tr.Len())
	}
	tr.Put([]byte("k"), leaf("v1"))
	if tr.Root() != r1 {
		t.Fatal("restoring the old leaf does not restore the old root")
	}
}

func TestDeletePrefix(t *testing.T) {
	tr := &Trie{}
	model := map[string][32]byte{}
	put := func(k string) { tr.Put([]byte(k), leaf(k)); model[k] = leaf(k) }
	for _, k := range []string{
		"c/alpha", "c/alpha\x1fx", "c/alpha\x1fy", "c/alpha\x1fy\x1fz",
		"c/alphabet", "c/beta", "a1", "a2",
	} {
		put(k)
	}
	// Cut the "c/alpha\x1f" subtree: the sibling "c/alphabet" (shares
	// the byte prefix but not the separated path) must survive.
	n := tr.DeletePrefix([]byte("c/alpha\x1f"))
	if n != 3 {
		t.Fatalf("DeletePrefix removed %d keys, want 3", n)
	}
	for k := range model {
		if strings.HasPrefix(k, "c/alpha\x1f") {
			delete(model, k)
		}
	}
	checkAgainstModel(t, tr, model)

	if n := tr.DeletePrefix([]byte("c/alpha\x1f")); n != 0 {
		t.Fatalf("second DeletePrefix removed %d keys, want 0", n)
	}
	if n := tr.DeletePrefix(nil); n != len(model) {
		t.Fatalf("DeletePrefix(nil) removed %d, want %d (clear all)", n, len(model))
	}
	if tr.Root() != (&Trie{}).Root() {
		t.Fatal("cleared trie does not hash as empty")
	}
}

// TestRandomizedModel drives long random op sequences against a map
// model under several seeds, checking contents and the
// canonical-structure property (incremental root == fresh rebuild) at
// intervals. Keys are drawn from a small alphabet with separators so
// splits, collapses, and shared prefixes happen constantly.
func TestRandomizedModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			randKey := func() string {
				var sb strings.Builder
				for n := rng.Intn(4) + 1; n > 0; n-- {
					if sb.Len() > 0 {
						sb.WriteString("\x1f")
					}
					sb.WriteByte('a' + byte(rng.Intn(3)))
					sb.WriteByte('a' + byte(rng.Intn(3)))
				}
				return sb.String()
			}
			tr := &Trie{}
			model := map[string][32]byte{}
			for i := 0; i < 3000; i++ {
				k := randKey()
				switch op := rng.Intn(10); {
				case op < 6: // put
					v := leaf(fmt.Sprintf("%s#%d", k, rng.Intn(4)))
					tr.Put([]byte(k), v)
					model[k] = v
				case op < 9: // delete
					got := tr.Delete([]byte(k))
					_, want := model[k]
					if got != want {
						t.Fatalf("op %d: Delete(%q) = %v, model says %v", i, k, got, want)
					}
					delete(model, k)
				default: // delete prefix
					p := k + "\x1f"
					want := 0
					for mk := range model {
						if strings.HasPrefix(mk, p) {
							delete(model, mk)
							want++
						}
					}
					if got := tr.DeletePrefix([]byte(p)); got != want {
						t.Fatalf("op %d: DeletePrefix(%q) = %d, model says %d", i, p, got, want)
					}
				}
				checkEdgeOrder(t, tr)
				if i%250 == 0 {
					checkAgainstModel(t, tr, model)
				}
			}
			checkAgainstModel(t, tr, model)
		})
	}
}

// TestRootIsIncremental pins the performance contract: after a bulk
// load and one Root call, touching a handful of keys must not rehash
// the whole trie. We can't count hash invocations directly, so we
// assert dirtiness stays confined: a untouched subtree's cached hash
// object identity is observable via the root changing only when it
// must.
func TestRootIsIncremental(t *testing.T) {
	tr := &Trie{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("bucket%d\x1fitem%d", i%10, i)
		tr.Put([]byte(k), leaf(k))
	}
	r0 := tr.Root()
	if tr.at(0).dirty {
		t.Fatal("root still dirty after Root()")
	}
	tr.Put([]byte("bucket3\x1fitem33"), leaf("new"))
	// Only the path to bucket3/item33 may be dirty.
	dirty := countDirty(tr, 0)
	if dirty == 0 || dirty > 20 {
		t.Fatalf("touching one key dirtied %d nodes (want a short path)", dirty)
	}
	if tr.Root() == r0 {
		t.Fatal("changed leaf did not change the root")
	}
}

func countDirty(tr *Trie, i uint32) int {
	n := tr.at(i)
	c := 0
	if n.dirty {
		c++
	}
	for _, ch := range tr.kidsOf(n) {
		c += countDirty(tr, ch)
	}
	return c
}

// TestGoldenRoot pins the preimage encoding: a fixed key set with fixed
// leaf hashes, built through inserts, overwrites, deletes that collapse
// nodes and a prefix cut, must hash to the root recorded before the
// children moved from a map into edge-ordered slices.
func TestGoldenRoot(t *testing.T) {
	tr := &Trie{}
	key := func(i int) []byte {
		a := sha256.Sum256([]byte(fmt.Sprintf("addr%d", i%7)))
		k := sha256.Sum256([]byte(fmt.Sprintf("key%d", i)))
		switch i % 4 {
		case 0:
			return append([]byte("a"), k[:20]...)
		case 1:
			return []byte(fmt.Sprintf("c%s\x1fbalances\x1f%x", a[:20], k[:20]))
		case 2:
			return []byte(fmt.Sprintf("c%s\x1fallowances\x1f%x\x1f%x", a[:20], k[:2], k[2:22]))
		default:
			return []byte(fmt.Sprintf("c%s\x1ff%d", a[:20], i%13))
		}
	}
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), leaf(fmt.Sprintf("v%d", i)))
	}
	tr.Put(nil, leaf("root value"))
	mid := tr.Root()
	for i := 0; i < 5000; i += 3 {
		tr.Delete(key(i))
	}
	for i := 0; i < 5000; i += 5 {
		tr.Put(key(i), leaf(fmt.Sprintf("w%d", i)))
	}
	a3 := sha256.Sum256([]byte("addr3"))
	tr.DeletePrefix([]byte(fmt.Sprintf("c%s\x1fallowances\x1f", a3[:20])))
	end := tr.Root()
	const wantMid = "7bae7e9a9dfc25c822d2e6a24bb320a0aa8fa70860cd524f9fb3ccec09cca96c"
	const wantEnd = "f49be639b2e5b2bce3d71f5d1dad9c7d9d721731eaf897e2ff8920b75edef44d"
	if got := fmt.Sprintf("%x", mid); got != wantMid {
		t.Errorf("root after the bulk load = %s, want %s", got, wantMid)
	}
	if got := fmt.Sprintf("%x", end); got != wantEnd {
		t.Errorf("root after deletes, overwrites and the prefix cut = %s, want %s (Len %d)", got, wantEnd, tr.Len())
	}
}

// TestAccountLeafWideBalances pins the account leaf of balances past
// one word to the hashes of their big.Int rendering (sha256 of 0x03 ‖
// big.Int.Append(balance, 10) ‖ 0 ‖ uvarint nonce ‖ flag), so formatting
// a balance from its two words moves no root.
func TestAccountLeafWideBalances(t *testing.T) {
	var s StateRoots
	for _, tc := range []struct {
		acc  chain.Account
		want string
	}{
		{chain.Account{Balance: chain.BalanceOf(1 << 40), Nonce: 7},
			"81439eb91c25a8863d1ab0ace1e1c2e7886575ca30b61d0cd4fd678fb1f3801a"},
		{chain.Account{Balance: chain.Balance{Hi: 1, Lo: 5}, Nonce: 3}, // 2^64+5
			"f0f2f2bcc664b579877df37d280bc53e68456e5109131ecadbe61ed7fa48e6b4"},
		{chain.Account{Balance: chain.Balance{Hi: ^uint64(0), Lo: ^uint64(0)}, IsContract: true}, // 2^128-1
			"d315036cb9191d5794cb1bb6f6f2a9d9428c367d6147d798ba60d181042855d5"},
	} {
		if got := fmt.Sprintf("%x", s.accountLeaf(tc.acc)); got != tc.want {
			t.Errorf("accountLeaf(%+v) = %s, want %s", tc.acc, got, tc.want)
		}
	}
}
