package node

// The receipt log against real block bytes, and a replica applying
// them.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// ftEnv provisions the `FT transfer` workload over n users on three
// shards: the producer of ftBlocks, and the genesis of a replica that
// applies them.
func ftEnv(tb testing.TB, n int) (*workload.Workload, *workload.Env) {
	tb.Helper()
	w := workload.FTTransfer()
	w.Users = n
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		tb.Fatal(err)
	}
	return w, env
}

// ftBlocks runs epochs epochs of n `FT transfer` transactions each
// through the pipeline and returns their FinalBlocks' payloads, in
// order: a chain a replica of ftEnv(n) applies.
func ftBlocks(tb testing.TB, epochs, n int) [][]byte {
	tb.Helper()
	w, env := ftEnv(tb, n)
	payloads := make([][]byte, epochs)
	for e := range payloads {
		for i := 0; i < n; i++ {
			env.Net.Submit(w.Next(env))
		}
		run := env.Net.BeginEpoch()
		run.CollectFinalBlock()
		blocks := make([]*shard.MicroBlock, len(run.Queues()))
		var err error
		for s, q := range run.Queues() {
			if blocks[s], err = env.Net.ExecuteShard(s, q); err != nil {
				tb.Fatal(err)
			}
		}
		_, fb, err := env.Net.FinalizeEpoch(run, blocks)
		if err != nil {
			tb.Fatal(err)
		}
		if len(fb.Receipts) != n {
			tb.Fatalf("block %d carries %d receipts, want %d", e, len(fb.Receipts), n)
		}
		if payloads[e], err = wire.EncodeFinalBlock(fb); err != nil {
			tb.Fatal(err)
		}
	}
	return payloads
}

// ftBlock is the payload of one epoch of n `FT transfer` transactions.
func ftBlock(tb testing.TB, n int) []byte { return ftBlocks(tb, 1, n)[0] }

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// anotherBlock decodes the payload from a copy of its own — the copy is
// what a role's endpoint would have handed it — and renumbers the
// receipts as block k's transactions.
func anotherBlock(tb testing.TB, payload []byte, k int) []*chain.Receipt {
	tb.Helper()
	fb, err := wire.DecodeFinalBlock(bytes.Clone(payload))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range fb.Receipts {
		r.TxID += uint64(k) << 32
	}
	return fb.Receipts
}

// TestReceiptLogOwnsItsBytes: once a block's receipts are filed, the
// payload they were decoded from can be overwritten (or collected)
// without the log noticing.
func TestReceiptLogOwnsItsBytes(t *testing.T) {
	payload := ftBlock(t, 200)
	// One failed receipt too, so an error text is among what is kept.
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	failed := *fb.Receipts[0]
	failed.TxID, failed.Success, failed.Error = 1<<40, false, "tx 1099511627776 sender 0x64 nonce 4: out of gas"
	fb.Receipts = append(fb.Receipts, &failed)
	if payload, err = wire.EncodeFinalBlock(fb); err != nil {
		t.Fatal(err)
	}

	pristine, err := wire.DecodeFinalBlock(bytes.Clone(payload))
	if err != nil {
		t.Fatal(err)
	}
	fb, err = wire.DecodeFinalBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	log := NewReceiptLog(0)
	file(t, log, fb.Receipts)
	for i := range payload {
		payload[i] = 0xFF
	}
	for _, want := range pristine.Receipts {
		got := log.Receipt(want.TxID)
		if got == nil {
			t.Fatalf("receipt %d not on file", want.TxID)
		}
		if got == fb.Receipts[0] || !reflect.DeepEqual(got, want) {
			t.Fatalf("receipt %d after the payload was overwritten:\n %+v\nwant\n %+v", want.TxID, got, want)
		}
		if cap(got.RawEvents) != len(got.RawEvents) {
			t.Fatalf("receipt %d: its events' bytes can be appended into the next receipt's", want.TxID)
		}
		gotEv, err := wire.ReceiptEvents(got)
		if err != nil {
			t.Fatalf("receipt %d: %v", want.TxID, err)
		}
		if wantEv, _ := wire.ReceiptEvents(want); !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("receipt %d events %v, want %v", want.TxID, gotEv, wantEv)
		}
	}
}

// TestReceiptLogRetention puts a ceiling on what a filed receipt keeps
// alive: 50 decoded 2000-receipt blocks, each from its own copy of the
// payload, then everything but the log dropped. A token transfer's
// receipt is ~110 B on the wire; the header, index and eviction ring
// bring it to ~180 B. (A log that keeps each chain.Receipt, and through
// its RawEvents the whole payload with its deltas, holds ~400 B.)
func TestReceiptLogRetention(t *testing.T) {
	const blocks, perBlock, ceiling = 50, 2000, 224
	payload := ftBlock(t, perBlock)
	log := NewReceiptLog(0)
	before := liveHeap()
	for k := 0; k < blocks; k++ {
		file(t, log, anotherBlock(t, payload, k))
	}
	grown := int64(liveHeap() - before)
	if log.Len() != blocks*perBlock {
		t.Fatalf("%d receipts on file, want %d", log.Len(), blocks*perBlock)
	}
	per := grown / int64(log.Len())
	t.Logf("%d receipts keep %d B alive, %d B each (%d B of it the log's batches); a block is %d B per receipt on the wire",
		log.Len(), grown, per, log.Bytes()/log.Len(), len(payload)/perBlock)
	if per > ceiling {
		t.Errorf("a filed receipt keeps %d B alive, want at most %d", per, ceiling)
	}
	runtime.KeepAlive(payload)
}

// TestReplicaKeepsNoReceipts is the gate on where receipts live: a
// shard replica applies a chain of 50 decoded 2000-transfer FinalBlocks
// and keeps nothing of their receipts. A second replica applying the
// same blocks with their receipts stripped is the control, its heap
// growth the state's own; what the first grows beyond it, per applied
// receipt, is what the replica kept of them. (A replica that filed
// every receipt into a log of its own kept ~180 B each.)
func TestReplicaKeepsNoReceipts(t *testing.T) {
	const blocks, perBlock, ceiling = 50, 2000, 32
	payloads := ftBlocks(t, blocks, perBlock)
	grow := func(strip bool) int64 {
		_, env := ftEnv(t, perBlock)
		before := liveHeap()
		for e, payload := range payloads {
			fb, err := wire.DecodeFinalBlock(bytes.Clone(payload))
			if err != nil {
				t.Fatal(err)
			}
			if strip {
				fb.Receipts = nil
			}
			if err := env.Net.ApplyFinalBlock(fb); err != nil {
				t.Fatalf("block %d: %v", e, err)
			}
		}
		grown := int64(liveHeap() - before)
		runtime.KeepAlive(env)
		return grown
	}
	state := grow(true)
	applied := grow(false)
	runtime.KeepAlive(payloads)
	per := (applied - state) / (blocks * perBlock)
	t.Logf("%d applied receipts: the replica grew %d B, %d B without the receipts; %d B per receipt",
		blocks*perBlock, applied, state, per)
	if per > ceiling {
		t.Errorf("a replica keeps %d B per applied receipt, want at most %d", per, ceiling)
	}
}

var sinkReceipt *chain.Receipt

// BenchmarkReceiptLogFile files one decoded 4000-receipt block per op
// into a log at capacity, so every op also evicts a block's worth. The
// decode is outside the timer. A batch is two allocations and its
// registration, whatever the block's size; over many ops the index
// rehashing as ids come and go adds to both B/receipt and allocs/block.
func BenchmarkReceiptLogFile(b *testing.B) {
	const perBlock = 4000
	payload := ftBlock(b, perBlock)
	log := NewReceiptLog(0)
	k := 0
	for ; log.Len() < DefaultReceiptCap; k++ {
		file(b, log, anotherBlock(b, payload, k))
	}
	var before, after runtime.MemStats
	var bytes, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := anotherBlock(b, payload, k+i)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		err := log.File(recs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		sinkReceipt = log.Receipt(recs[0].TxID)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perBlock, "ns/receipt")
	b.ReportMetric(float64(bytes)/float64(b.N)/perBlock, "B/receipt")
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/block")
}
