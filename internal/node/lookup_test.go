package node

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// TestLookupLeavesNoCorrelation: a request's correlation entry is gone
// when the request is over, however it ended — taken by the loop with
// the answer, or by the caller when none came — and an answer of the
// wrong kind under the request's id is an error, not a panic.
func TestLookupLeavesNoCorrelation(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	pending := func(l *Lookup) int {
		l.rt.mu.Lock()
		defer l.rt.mu.Unlock()
		return len(l.pending)
	}

	// A committee that is registered and never reads: every request
	// times out.
	net := NewChanNetwork()
	defer net.Close()
	net.Endpoint("ds")
	deaf := NewLookup("lookup", net.Endpoint("lookup"), "ds")
	deaf.timeout = 10 * time.Millisecond
	deaf.Run()
	defer deaf.Close()
	if _, err := deaf.SubmitTx(w.Next(env)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("submit with no committee: %v, want ErrTimeout", err)
	}
	if _, err := deaf.GetState(env.Contract, "balances", ""); !errors.Is(err, ErrTimeout) {
		t.Fatalf("query with no committee: %v, want ErrTimeout", err)
	}
	if n := pending(deaf); n != 0 {
		t.Errorf("%d correlation entries left behind by timed-out requests", n)
	}

	// A committee that answers a submission with a state response.
	confused := net.Endpoint("confused-ds")
	go func() {
		for {
			_, frame, err := confused.Recv()
			if err != nil {
				return
			}
			typ, payload, _, _ := wire.DecodeFrame(frame)
			if typ != wire.MsgSubmit {
				continue // the lookup's hello
			}
			s, err := wire.DecodeSubmit(payload)
			if err != nil {
				t.Error(err)
				return
			}
			resp, _ := wire.EncodeStateResp(&wire.StateResp{Corr: s.Corr})
			confused.Send("lookup-2", wire.EncodeFrame(wire.MsgStateResp, resp))
		}
	}()
	misled := NewLookup("lookup-2", net.Endpoint("lookup-2"), "confused-ds")
	misled.Run()
	defer misled.Close()
	if _, err := misled.SubmitTx(w.Next(env)); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("submit answered with a state response: %v, want an error that is not a timeout", err)
	}
	if n := pending(misled); n != 0 {
		t.Errorf("%d correlation entries left behind by a misanswered request", n)
	}

	cluster, err := NewCluster(testGenesis(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Lookup.SubmitTx(w.Next(env)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Lookup.GetAccount(env.Users[0]); err != nil {
		t.Fatal(err)
	}
	if n := pending(cluster.Lookup); n != 0 {
		t.Errorf("%d correlation entries left behind by answered requests", n)
	}
}

// TestLookupBuildsNoDeltas: handling a FinalBlock broadcast costs a
// lookup the log's copy of the block's receipt section and its root —
// a handful of allocations for a 2000-transaction block — where
// decoding the block the way a replica must builds every delta entry;
// and a block whose delta section is corrupt is still refused.
func TestLookupBuildsNoDeltas(t *testing.T) {
	const txs = 2000
	w := workload.FTTransfer()
	w.Users = txs
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	fb := produceFinalBlocks(t, env.Net, func() *chain.Tx { return w.Next(env) }, 1, txs)[0]
	payload, err := wire.SealedFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l := NewLookup("lookup", NewChanNetwork().Endpoint("lookup"), "ds", LookupObs(reg, nil))
	if err := l.finalBlock(payload); err != nil { // the range scratch grows once
		t.Fatal(err)
	}
	if l.receipts.Len() != txs {
		t.Fatalf("%d receipts on file, want %d", l.receipts.Len(), txs)
	}
	if n, b := reg.Gauge("node.lookup_receipts").Value(), reg.Gauge("node.lookup_receipt_bytes").Value(); n != txs || b != int64(l.receipts.Bytes()) || b == 0 {
		t.Errorf("gauges: %d receipts in %d bytes; the log holds %d in %d", n, b, l.receipts.Len(), l.receipts.Bytes())
	}

	replica := testing.AllocsPerRun(5, func() {
		if _, err := wire.DecodeFinalBlock(payload); err != nil {
			t.Fatal(err)
		}
	})
	lookup := testing.AllocsPerRun(5, func() {
		if err := l.finalBlock(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one %d-tx FinalBlock: %.0f allocations decoded whole, %.0f handled by the lookup", txs, replica, lookup)
	if lookup > 16 || replica < 100*lookup {
		t.Errorf("the lookup made %.0f allocations handling a block (a full decode makes %.0f); want at most 16", lookup, replica)
	}

	// The same block with one delta of a kind that does not exist.
	bad := *fb
	bad.Deltas = append([]*chain.StateDelta{{Contract: env.Contract, Fields: []chain.FieldDelta{
		{Name: "balances", Whole: &chain.EntryDelta{Kind: chain.Delete + 1}},
	}}}, fb.Deltas...)
	corrupt, err := wire.EncodeFinalBlock(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeFinalBlock(corrupt); err == nil {
		t.Fatal("the corruption is not one a replica refuses")
	}
	if err := l.finalBlock(corrupt); !errors.Is(err, wire.ErrDecode) {
		t.Errorf("a block with a corrupt delta section: %v, want ErrDecode", err)
	}
}

// TestReplicaBuildsNoReceipts: a replica reads a FinalBlock — broadcast,
// in a catch-up response, or from its journal — the way the lookup reads
// deltas, its receipts checked byte for byte and none built, since
// ApplyFinalBlock never reads them; the block stays sealed with the
// bytes it came in, receipts and all. On a 2000-transaction block the
// read allocates at least the receipts' records less than a full decode,
// in fewer allocations.
func TestReplicaBuildsNoReceipts(t *testing.T) {
	const txs = 2000
	w := workload.FTTransfer()
	w.Users = txs
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	fb := produceFinalBlocks(t, env.Net, func() *chain.Tx { return w.Next(env) }, 1, txs)[0]
	payload, err := wire.SealedFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Receipts) != txs {
		t.Fatalf("the block carries %d receipts, want %d", len(fb.Receipts), txs)
	}
	read, err := wire.DecodeFinalBlockState(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeBlockResponse(wire.AppendBlockResponse(nil, fb.Epoch, fb.Epoch+1, [][]byte{payload}))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := wire.DecodeCheckpointBlock(append(wire.AppendCheckpoint(nil, env.Net.Checkpoint()), payload...))
	if err != nil {
		t.Fatal(err)
	}
	for how, got := range map[string]*shard.FinalBlock{"broadcast": read, "catch-up": resp.Blocks[0], "journal": cb.Block} {
		if got.Receipts != nil || len(got.Deltas) != len(fb.Deltas) || got.StateRoot != fb.StateRoot {
			t.Errorf("%s: %d receipts, %d deltas, root %s; the block has %d deltas, root %s",
				how, len(got.Receipts), len(got.Deltas), got.StateRoot, len(fb.Deltas), fb.StateRoot)
		}
		if sealed, _ := wire.SealedFinalBlock(got); !bytes.Equal(sealed, payload) {
			t.Errorf("%s: the block is not sealed with the bytes it was read from", how)
		}
	}

	cost := func(decode func([]byte) (*shard.FinalBlock, error)) (allocs float64, bytes uint64) {
		const runs = 5
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := decode(payload); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&ms)
		return allocs, (ms.TotalAlloc - before) / (runs + 1) // AllocsPerRun warms up once
	}
	wholeAllocs, wholeBytes := cost(wire.DecodeFinalBlock)
	stateAllocs, stateBytes := cost(wire.DecodeFinalBlockState)
	saved := uint64(txs) * uint64(unsafe.Sizeof(chain.Receipt{}))
	t.Logf("one %d-tx FinalBlock: %.0f allocations, %d B decoded whole; %.0f, %d B read as a replica",
		txs, wholeAllocs, wholeBytes, stateAllocs, stateBytes)
	if stateBytes+saved > wholeBytes || stateAllocs >= wholeAllocs {
		t.Errorf("a replica's read allocates %d B in %.0f allocations, a full decode %d B in %.0f; want %d B fewer at least, in fewer allocations",
			stateBytes, stateAllocs, wholeBytes, wholeAllocs, saved)
	}
}
