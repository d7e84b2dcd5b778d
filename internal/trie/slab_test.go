package trie

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// checkSlots asserts the slab's bookkeeping: every slot handed out is
// reachable from the root or on the free list, never both; the runs of
// reachable nodes and the free runs tile the child arenas exactly; the
// prefix arena is live prefixes plus counted dead bytes; and no stale
// flag sits below a clean slot, or anywhere once the root is hashed.
func checkSlots(t *testing.T, tr *Trie) {
	t.Helper()
	if tr.slots == 0 {
		return
	}
	const reached, freed = 1, 2
	seen := make([]byte, tr.slots)
	live, runSlots := 0, 0
	var walk func(i uint32, clean bool)
	walk = func(i uint32, clean bool) {
		if seen[i] != 0 {
			t.Fatalf("slot %d reached twice", i)
		}
		seen[i] = reached
		n := tr.at(i)
		live += int(n.plen)
		if n.nkids > 0 {
			runSlots += 1 << runClass(int(n.nkids))
		}
		for _, c := range tr.kidsOf(n) {
			if c&stale != 0 && clean {
				t.Fatalf("slot %d is flagged stale below a clean slot", c&^stale)
			}
			walk(c&^stale, c&stale == 0)
		}
	}
	walk(0, tr.hashed)
	for i := tr.free; i != 0; i = tr.at(i).run {
		if seen[i] != 0 {
			t.Fatalf("slot %d is on the free list and reachable (or listed twice)", i)
		}
		seen[i] = freed
	}
	for i, s := range seen {
		if s == 0 {
			t.Fatalf("slot %d of %d is neither reachable nor free", i, tr.slots)
		}
	}
	runSlots += freeRunSlots(t, tr)
	if runSlots != len(tr.runs)*runPageLen {
		t.Fatalf("runs in use and free cover %d child slots, %d in the run pages", runSlots, len(tr.runs)*runPageLen)
	}
	if live+tr.dead != tr.keyUsed {
		t.Fatalf("prefix bytes: %d live + %d dead, %d handed out", live, tr.dead, tr.keyUsed)
	}
}

// freeRunSlots returns the slots the free run lists hold.
func freeRunSlots(t *testing.T, tr *Trie) int {
	t.Helper()
	free := 0
	for c, h := range tr.runFree {
		for steps := 0; h != 0; h = binary.LittleEndian.Uint32(tr.links(h - 1)) {
			if steps++; steps > len(tr.runs)*runPageLen {
				t.Fatalf("free list of run class %d loops", c)
			}
			free += 1 << c
		}
	}
	return free
}

// TestTrieNoPointers: nothing the trie stores per node contains
// something the collector would have to follow.
func TestTrieNoPointers(t *testing.T) {
	var tr Trie
	for _, typ := range []reflect.Type{
		reflect.TypeOf(node{}),
		reflect.TypeOf(tr.pages).Elem().Elem(),
		reflect.TypeOf(tr.runs).Elem().Elem(),
		reflect.TypeOf(tr.keys).Elem().Elem(),
	} {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("%s holds a reference at %s", typ, path)
		}
	}
	if sz := unsafe.Sizeof(node{}); sz != 48 {
		t.Errorf("node record is %d bytes, want 48", sz)
	}
}

// pointerIn returns the path to the first pointer, slice, map, string,
// interface, func or channel inside typ, or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// bigstateKeys is epoch_cf_bigstate's key shape: accounts keyed "a" ‖
// a hashed 20-byte address, and one contract's backers map keyed by the
// canonical hex rendering of such addresses.
func bigstateKeys(accounts, backers int) [][]byte {
	keys := make([][]byte, 0, accounts+backers)
	for i := 0; i < accounts; i++ {
		keys = append(keys, append([]byte("a"), addr(i)...))
	}
	contract := addr(-1)
	for i := 0; i < backers; i++ {
		keys = append(keys, []byte(fmt.Sprintf("c%s\x1fbackers\x1fb:0x%x", contract, addr(i))))
	}
	return keys
}

// TestTrieRetention puts a ceiling on what one leaf costs a role once
// the trie is built: at epoch_cf_bigstate's shape (100k account leaves,
// 26k map entries) at most 150 bytes per leaf stay on the heap after a
// collection. A node per pointerful object held ~208.
func TestTrieRetention(t *testing.T) {
	const ceiling = 150
	keys := bigstateKeys(100_000, 26_000)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tr := &Trie{}
	for i, k := range keys {
		tr.Put(k, leaf(fmt.Sprint(i)))
	}
	tr.Root()
	perLeaf := float64(heap()-before) / float64(len(keys))
	runtime.KeepAlive(tr)
	runtime.KeepAlive(keys)
	t.Logf("%d leaves in %d slots: %.1f B per leaf retained, Bytes() %.1f per leaf", tr.Len(), tr.slots, perLeaf, float64(tr.Bytes())/float64(len(keys)))
	if perLeaf > ceiling {
		t.Errorf("trie retains %.1f B per leaf, ceiling %d", perLeaf, ceiling)
	}
}

// TestTrieReusesSlots: a trie emptied by Delete and DeletePrefix and
// loaded again with the same keys takes no page, run or prefix byte
// beyond what the first load took, and hashes as a fresh build does.
func TestTrieReusesSlots(t *testing.T) {
	var keys []string
	for g := 0; g < 200; g++ {
		for i := 0; i < 100; i++ {
			keys = append(keys, fmt.Sprintf("c%x\x1fbalances\x1f%x", addr(g)[:6], addr(g*100 + i)[:10]))
		}
	}
	tr := &Trie{}
	load := func() {
		for _, k := range keys {
			tr.Put([]byte(k), leaf(k))
		}
	}
	type size struct{ pages, slots, runPages, keyPages, keyBytes int }
	sizeOf := func() size {
		return size{len(tr.pages), int(tr.slots), len(tr.runs), len(tr.keys), tr.keyUsed}
	}
	load()
	want := tr.Root()
	first := sizeOf()
	for round := 0; round < 3; round++ {
		// Half the groups leave key by key, half by prefix.
		for g := 0; g < 200; g++ {
			group := keys[g*100 : (g+1)*100]
			if g%2 == 0 {
				for _, k := range group {
					if !tr.Delete([]byte(k)) {
						t.Fatalf("Delete(%q) found nothing", k)
					}
				}
				continue
			}
			p := group[0][:strings.LastIndexByte(group[0], 0x1f)+1]
			if n := tr.DeletePrefix([]byte(p)); n != 100 {
				t.Fatalf("DeletePrefix(%q) removed %d keys, want 100", p, n)
			}
		}
		if tr.Len() != 0 || tr.Root() != (&Trie{}).Root() {
			t.Fatalf("round %d: emptied trie has %d keys, root %x", round, tr.Len(), tr.Root())
		}
		checkSlots(t, tr)
		load()
		checkSlots(t, tr)
		if got := sizeOf(); got.pages > first.pages || got.slots > first.slots || got.runPages > first.runPages ||
			got.keyPages > first.keyPages || got.keyBytes > first.keyBytes {
			t.Fatalf("round %d: reload grew the slab: %+v after the first load, %+v now", round, first, got)
		}
		if got := tr.Root(); got != want {
			t.Fatalf("round %d: reloaded root %x, fresh build %x", round, got, want)
		}
	}
}

// TestRunsDoNotStrand: 4096 nodes that grow side by side to 20
// children each free a run of every smaller capacity on the way; those
// merge with their freed neighbours into the runs the next growth
// takes, so what is left free is less than two run pages, not the
// 123k slots (nearly half the arena) of runs no node fits any more.
func TestRunsDoNotStrand(t *testing.T) {
	tr := &Trie{}
	for j := 0; j < 20; j++ {
		for n := 0; n < 4096; n++ {
			tr.Put([]byte{'r', byte(n >> 8), byte(n), byte(j * 7)}, leaf("x"))
		}
	}
	checkSlots(t, tr)
	free := freeRunSlots(t, tr)
	t.Logf("%d run pages, %d of their %d slots free", len(tr.runs), free, len(tr.runs)*runPageLen)
	if free >= 2*runPageLen {
		t.Errorf("%d run slots free after the nodes grew, want fewer than %d", free, 2*runPageLen)
	}
}

// TestLongPrefixes: a prefix longer than a byte page splits (at an
// offset past the first page), collapses and compacts like any other.
func TestLongPrefixes(t *testing.T) {
	long := strings.Repeat("x", 5*keyPageLen/2)
	keys := []string{long + "a", long[:keyPageLen+7] + "b", "x", long + "a" + long, "y"}
	tr := &Trie{}
	model := map[string][32]byte{}
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			tr.Put([]byte(k), leaf(k))
			model[k] = leaf(k)
			checkAgainstModel(t, tr, model)
		}
		for _, k := range keys[:len(keys)-1] {
			tr.Delete([]byte(k))
			delete(model, k)
			checkAgainstModel(t, tr, model)
		}
	}
}

// FuzzTrieOps runs an op sequence decoded from the input against a map
// model: Len after every op, Root against a fresh rebuild of the model
// at every Root op (so stale flags left pending ride later splits,
// collapses, prefix cuts and run moves), then Get of every key, the
// final root, edge order and the slab's bookkeeping. A load op replaces
// the trie with one Load builds from the model's sorted keys, which
// must hold the same keys, hash to the same root and keep the same
// bookkeeping, and the ops after it run on the loaded trie. A long put
// puts the key behind a stem longer than a byte page. The alphabet lets
// a node pass four children into larger runs.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte("\x00\x03abc\x00\x02ab\x01\x03abc\x02\x01a"))
	f.Add([]byte("\x00\x04a\x1fbc\x00\x04a\x1fbd\x00\x01a\x02\x02a\x1f\x00\x02ab\x02\x00"))
	f.Add([]byte("\x00\x05abcab\x00\x05abcbb\x00\x05abcbc\x01\x05abcab\x01\x05abcbb\x00\x03abd"))
	// A key that is a prefix of another, loaded, then split below.
	f.Add([]byte("\x00\x02ab\x00\x04abcd\x04\x00\x00\x03abd\x01\x02ab\x03\x00"))
	// The empty key, on the root, loaded and deleted.
	f.Add([]byte("\x00\x00\x00\x01a\x00\x01b\x04\x00\x01\x00\x03\x00\x00\x02ac"))
	// Keys that part after a prefix longer than a byte page, loaded,
	// then split, collapsed and cut.
	f.Add([]byte("\x05\x01a\x05\x01b\x05\x00\x04\x00\x05\x02ac\x01\x00\x03\x00\x02\x02aa"))
	long := strings.Repeat("a", keyPageLen+3)
	f.Fuzz(func(t *testing.T, ops []byte) {
		alphabet := []byte("abcdefghi\x1f")
		tr := &Trie{}
		model := map[string][32]byte{}
		for i := 0; len(ops) >= 2; i++ {
			op, n := ops[0]%6, int(ops[1]%7)
			ops = ops[2:]
			n = min(n, len(ops))
			k := make([]byte, n)
			for j := range k {
				k[j] = alphabet[int(ops[j])%len(alphabet)]
			}
			ops = ops[n:]
			if op == 5 {
				op, k = 0, append([]byte(long), k...)
			}
			switch op {
			case 0:
				v := leaf(fmt.Sprintf("%q#%d", k, i))
				tr.Put(k, v)
				model[string(k)] = v
			case 1:
				_, want := model[string(k)]
				if got := tr.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%q) = %v, model says %v", i, k, got, want)
				}
				delete(model, string(k))
			case 2:
				want := 0
				for mk := range model {
					if strings.HasPrefix(mk, string(k)) {
						delete(model, mk)
						want++
					}
				}
				if got := tr.DeletePrefix(k); got != want {
					t.Fatalf("op %d: DeletePrefix(%q) = %d, model says %d", i, k, got, want)
				}
			case 3:
				if got, want := tr.Root(), rebuild(model).Root(); got != want {
					t.Fatalf("op %d: Root %x, a fresh build of the model %x", i, got, want)
				}
			default:
				loaded := load(model)
				checkContents(t, loaded, model)
				checkSlots(t, loaded)
				if got, want := loaded.Root(), tr.Root(); got != want {
					t.Fatalf("op %d: loaded root %x, the trie's %x", i, got, want)
				}
				tr = loaded
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model has %d", i, tr.Len(), len(model))
			}
		}
		checkAgainstModel(t, tr, model)
		checkSlots(t, tr)
	})
}

// TestRunClasses takes one node up through every run capacity to 256
// children and back down, in a shuffled order, with keys below some of
// its children split, rewritten and collapsed between roots, so stale
// flags ride every run move. Root at random points must equal a fresh
// build's, and the run accounting must tile the run pages.
func TestRunClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &Trie{}
	model := map[string][32]byte{}
	put := func(k string, v int) {
		tr.Put([]byte(k), leaf(fmt.Sprint(k, v)))
		model[k] = leaf(fmt.Sprint(k, v))
	}
	check := func(when string) {
		t.Helper()
		if got, want := tr.Root(), rebuild(model).Root(); got != want {
			t.Fatalf("%s: root %x, a fresh build %x", when, got, want)
		}
		checkSlots(t, tr)
	}
	// "w" holds a value, so the wide node below the root never collapses.
	wide := func() int { return int(tr.at(tr.kidsOf(tr.at(0))[0] &^ stale).nkids) }
	child := func(e int) string { return "w" + string([]byte{byte(e)}) }
	put("w", 0)
	edges := rng.Perm(256)
	for i, e := range edges {
		put(child(e)+"leaf", i)
		if i%3 == 0 { // a second key below an earlier child splits it
			put(child(edges[rng.Intn(i+1)])+"x", i)
		}
		if rng.Intn(8) == 0 {
			check(fmt.Sprintf("%d children", wide()))
		}
	}
	if n := wide(); n != 256 {
		t.Fatalf("the wide node has %d children, want 256", n)
	}
	check("256 children")
	for i, e := range rng.Perm(256) {
		c := child(e)
		if i%2 == 0 {
			tr.DeletePrefix([]byte(c))
			for k := range model {
				if strings.HasPrefix(k, c) {
					delete(model, k)
				}
			}
		} else {
			tr.Delete([]byte(c + "leaf"))
			delete(model, c+"leaf")
			if _, ok := model[c+"x"]; ok {
				put(c+"x", i) // rewritten below a child that just collapsed
			}
		}
		if rng.Intn(8) == 0 {
			check(fmt.Sprintf("%d children", wide()))
		}
	}
	for k := range model {
		if k != "w" {
			tr.Delete([]byte(k))
			delete(model, k)
		}
	}
	if n := wide(); n != 0 {
		t.Fatalf("the wide node kept %d children", n)
	}
	check("no children")
}
