package shard_test

// The receipt log against real block bytes. These tests decode blocks,
// so they sit outside package shard (wire imports it).

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// ftBlock runs one epoch of n `FT transfer` transactions through the
// pipeline and returns the FinalBlock's payload.
func ftBlock(tb testing.TB, n int) []byte {
	tb.Helper()
	w := workload.FTTransfer()
	w.Users = n
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		env.Net.Submit(w.Next(env))
	}
	run := env.Net.BeginEpoch()
	run.CollectFinalBlock()
	blocks := make([]*shard.MicroBlock, len(run.Queues()))
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
		tb.Fatalf("block carries %d receipts, want %d", len(fb.Receipts), n)
	}
	payload, err := wire.EncodeFinalBlock(fb)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
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
	log := shard.NewReceiptLog(0)
	log.File(fb.Receipts)
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

// TestNetworkGaugesItsReceiptLog: a replica that applied a block shows
// in its registry how many receipts its log holds and in how many bytes.
func TestNetworkGaugesItsReceiptLog(t *testing.T) {
	const n = 50
	fb, err := wire.DecodeFinalBlock(ftBlock(t, n))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.FTTransfer()
	w.Users = n
	reg := obs.NewRegistry()
	env, err := workload.Provision(w, true, shard.WithShards(3), shard.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Provisioning ran the genesis transactions: their receipts are on
	// file as the executor built them, in no batch.
	genesis := reg.Gauge("shard.receipt_log_receipts").Value()
	if b := reg.Gauge("shard.receipt_log_bytes").Value(); genesis == 0 || b != 0 {
		t.Fatalf("gauges after genesis: %d receipts in %d bytes", genesis, b)
	}
	if err := env.Net.ApplyFinalBlock(fb); err != nil {
		t.Fatal(err)
	}
	receipts, bytes := reg.Gauge("shard.receipt_log_receipts").Value(), reg.Gauge("shard.receipt_log_bytes").Value()
	if receipts != genesis+n || bytes < n*40 || bytes > n*224 {
		t.Errorf("gauges after applying a %d-receipt block: %d receipts (%d at genesis) in %d bytes", n, receipts, genesis, bytes)
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
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	log := shard.NewReceiptLog(0)
	before := heap()
	for k := 0; k < blocks; k++ {
		log.File(anotherBlock(t, payload, k))
	}
	grown := int64(heap() - before)
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

var sinkReceipt *chain.Receipt

// BenchmarkReceiptLogFile files one decoded 4000-receipt block per op
// into a log at capacity, so every op also evicts a block's worth. The
// decode is outside the timer. A batch is two allocations and its
// registration, whatever the block's size; over many ops the index
// rehashing as ids come and go adds to both B/receipt and allocs/block.
func BenchmarkReceiptLogFile(b *testing.B) {
	const perBlock = 4000
	payload := ftBlock(b, perBlock)
	log := shard.NewReceiptLog(0)
	k := 0
	for ; log.Len() < shard.DefaultReceiptCap; k++ {
		log.File(anotherBlock(b, payload, k))
	}
	var before, after runtime.MemStats
	var bytes, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := anotherBlock(b, payload, k+i)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		log.File(recs)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		sinkReceipt = log.Receipt(recs[0].TxID)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perBlock, "ns/receipt")
	b.ReportMetric(float64(bytes)/float64(b.N)/perBlock, "B/receipt")
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/block")
}
