package store

import (
	"math/big"
	"runtime"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
)

// bigStateUsers is the account population of the large-state test:
// past the paper-scale benchmarks by an order of magnitude, and past
// the point where any O(history) or recompute-the-world implementation
// would blow the memory and time bounds below.
const bigStateUsers = 1_050_000

// heapBound is the allowed live heap after provisioning, running, and
// snapshotting the million-account state. The state itself (packed
// account table, incremental root trie) measures ~209 MB on
// amd64/go1.24; the bound leaves ~20 % headroom and fails if journaling
// or snapshotting ever buffers an extra O(state) copy. ROADMAP item 6
// targets ≤ 180 MB; the ~29 MB left is mostly the trie's pages.
const heapBound = 250 << 20

// bigStateNetwork provisions the million-account genesis: one funder
// and bigStateUsers accounts. No contract — the test targets the
// account half of the state root and the snapshot encoder's account
// batching, where the volume is.
func bigStateNetwork() *shard.Network {
	n := shard.NewNetwork(shard.WithShards(4))
	for i := 0; i < bigStateUsers; i++ {
		n.CreateUser(chain.AddrFromUint(uint64(1000+i)), 1<<40)
	}
	return n
}

// bigStateEpoch submits one deterministic transfer batch (senders
// spread across the population) and runs the epoch.
func bigStateEpoch(t *testing.T, n *shard.Network, k uint64) {
	t.Helper()
	const transfers = 500
	for i := uint64(0); i < transfers; i++ {
		from := chain.AddrFromUint(1000 + (i*2099)%bigStateUsers)
		to := chain.AddrFromUint(1000 + (i*2099+1)%bigStateUsers)
		n.Submit(&chain.Tx{
			Kind: chain.TxTransfer, From: from, To: to, Nonce: k,
			Amount: big.NewInt(3), GasLimit: 1, GasPrice: 1,
		})
	}
	stats, err := n.RunEpoch()
	if err != nil {
		t.Fatalf("epoch %d: %v", k, err)
	}
	if stats.Committed == 0 {
		t.Fatalf("epoch %d committed nothing", k)
	}
}

// TestMillionAccountsBoundedMemory runs the persistent pipeline over a
// 1M+ account state: every epoch journaled and snapshotted, then the
// whole thing recovered into a second process-worth of state, with the
// live heap held under heapBound throughout. This is the tentpole's
// scale proof — the incremental root makes per-epoch sealing O(delta),
// and the store streams snapshots instead of materialising copies.
func TestMillionAccountsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large-state test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("large-state test skipped under the race detector")
	}
	dir := t.TempDir()

	a := bigStateNetwork()
	st, err := Open(dir, WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	a.AttachStateStore(st)
	bigStateEpoch(t, a, 1)
	bigStateEpoch(t, a, 2)
	// Measure with the network still live: the bound covers the full
	// working set (accounts, root trie, store buffers), not a cleaned-up
	// remnant.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBound {
		t.Fatalf("heap %d MB exceeds bound %d MB with 1M-account state",
			ms.HeapAlloc>>20, uint64(heapBound)>>20)
	}
	root, cp := a.StateRoot(), a.Checkpoint()
	runtime.KeepAlive(a)
	t.Logf("heap after 1M-account run: %d MB, root %s", ms.HeapAlloc>>20, root)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover the full state into a second network and hold the root.
	b := bigStateNetwork()
	if err := Restore(dir, b); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := b.Checkpoint(); got != cp {
		t.Fatalf("recovered checkpoint %+v, want %+v", got, cp)
	}
	if got := b.StateRoot(); got != root {
		t.Fatalf("recovered root %s, want %s", got, root)
	}
}
