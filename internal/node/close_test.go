package node

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// TestConcurrentClose hammers every actor's Close from several
// goroutines at once: Close is documented idempotent and
// concurrency-safe (sync.Once around the quit channel), so this must
// neither panic ("close of closed channel") nor deadlock. Run under
// -race in CI.
func TestConcurrentClose(t *testing.T) {
	w := testWorkload()
	cluster, err := NewCluster(testGenesis(w), ClusterLookupCount(2))
	if err != nil {
		t.Fatal(err)
	}
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range cluster.Lookups {
				l.Close()
			}
			for _, s := range cluster.Shards {
				s.Close()
			}
			cluster.DS.Close()
		}()
	}
	wg.Wait()
	cluster.Close() // still idempotent after the storm
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// TestTCPHubCloseRace closes the hub from two goroutines while eight
// peers are still dialing in: Close's wg.Wait must be ordered against
// acceptLoop's wg.Add (both under the hub mutex), so Close cannot
// return while a serve goroutine is being born — and a dial landing
// after close is turned away, not leaked.
func TestTCPHubCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		hub, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ep, err := DialTCP(hub.Addr(), fmt.Sprintf("peer-%d", i))
				if err == nil {
					ep.Close()
				}
			}(i)
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(round%3) * 100 * time.Microsecond)
				hub.Close()
			}()
		}
		wg.Wait()
		hub.Close()
	}
}

// TestMultiLookupFanout scales the lookup tier out to three nodes: a
// submission through any lookup must commit, and every lookup —
// pre-registered or announced via MsgHello — must converge on the
// same receipts and chain head from the FinalBlock fan-out.
func TestMultiLookupFanout(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w), ClusterLookupCount(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if n := len(cluster.Lookups); n != 3 {
		t.Fatalf("cluster has %d lookups, want 3", n)
	}

	var last uint64
	for i := 0; i < 9; i++ {
		// Round-robin submissions across the tier, like -hammer does.
		id, err := cluster.Lookups[i%3].SubmitTx(w.Next(envSrc))
		if err != nil {
			t.Fatalf("submit via lookup %d: %v", i%3, err)
		}
		last = id
	}
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, l := range cluster.Lookups {
		if rc := l.WaitReceipt(last, 5*time.Second); rc == nil {
			t.Fatalf("lookup %d: receipt for tx %d never arrived", i, last)
		}
	}
	epoch0, root0 := cluster.Lookups[0].Chain()
	for i, l := range cluster.Lookups[1:] {
		if epoch, root := l.Chain(); epoch != epoch0 || root != root0 {
			t.Errorf("lookup %d chain (%d, %s) != lookup 0 chain (%d, %s)", i+1, epoch, root, epoch0, root0)
		}
	}
}

// TestLookupReceiptCapSmallerThanBlock bounds the cache below a single
// FinalBlock's receipt count: the one broadcast must insert and evict
// in the same stroke, leaving exactly cap receipts — the newest ones —
// with the rest gone.
func TestLookupReceiptCapSmallerThanBlock(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	const capN, perBlock = 3, 8
	cluster, err := NewCluster(testGenesis(w), clusterLookup(lookupReceiptCap(capN)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var first, last uint64
	for i := 0; i < perBlock; i++ {
		id, err := cluster.Lookup.SubmitTx(w.Next(envSrc))
		if err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first = id
		}
		last = id
	}
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Receipt order within a block is not the submission order, so wait
	// for the broadcast via the chain head, then count what survived.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, root := cluster.Lookup.Chain(); root != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("FinalBlock never reached the lookup")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cached := 0
	for id := first; id <= last; id++ {
		if cluster.Lookup.Receipt(id) != nil {
			cached++
		}
	}
	if cached != capN {
		t.Errorf("%d receipts cached after one %d-receipt block, want exactly %d", cached, perBlock, capN)
	}
}

// sleeper is a handler that arms one deadline an hour away at start.
type sleeper struct{ _ [8]byte }

func (*sleeper) start(fx effects, now time.Time) { fx.arm(1, now.Add(time.Hour)) }
func (*sleeper) frame(effects, time.Time, string, wire.MsgType, []byte) bool {
	return true
}
func (*sleeper) deadline(effects, time.Time, uint64) {}
func (*sleeper) call(effects, time.Time, *call)      {}

// TestClosedRuntimeReleasesHandler: a role closed with a deadline still
// armed lets its handler go. Its pending wake kept the handler (and a
// role's whole state) reachable until the deadline passed, so a
// cluster torn down mid-epoch stayed on the heap for seconds.
func TestClosedRuntimeReleasesHandler(t *testing.T) {
	h := &sleeper{}
	freed := make(chan struct{})
	runtime.SetFinalizer(h, func(*sleeper) { close(freed) })
	rt := &nodeRuntime{}
	rt.init(h, NewChanNetwork().Endpoint("sleeper"), nil, nil)
	rt.run()
	rt.close()
	rt, h = nil, nil
	giveUp := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-giveUp:
			t.Fatal("a closed runtime's handler is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
