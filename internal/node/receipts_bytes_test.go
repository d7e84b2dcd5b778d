package node

// The receipt log against real block bytes, and a replica applying
// them.

import (
	"bytes"
	"fmt"
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
	return provisioned(tb, workload.FTTransfer(), n)
}

// provisioned provisions w over n users on three shards.
func provisioned(tb testing.TB, w *workload.Workload, n int) (*workload.Workload, *workload.Env) {
	tb.Helper()
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
	return workloadBlocks(tb, w, env, epochs, n)
}

// workloadBlocks runs epochs epochs of n of w's transactions each
// through env's pipeline and returns their FinalBlocks' payloads.
func workloadBlocks(tb testing.TB, w *workload.Workload, env *workload.Env, epochs, n int) [][]byte {
	tb.Helper()
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

// liveHeap collects garbage and returns the bytes still allocated. The
// second collection frees what the first left in sync.Pool's victim
// caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// anotherBlock is the payload of a block carrying the receipts of
// payload renumbered as block k's transactions: the ids shifted by k
// times the span of the block's own, so blocks 0, 1, … hold disjoint
// runs of ids of a real block's width.
func anotherBlock(tb testing.TB, payload []byte, k int) []byte {
	tb.Helper()
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := fb.Receipts[0].TxID, fb.Receipts[0].TxID
	for _, r := range fb.Receipts {
		lo, hi = min(lo, r.TxID), max(hi, r.TxID)
	}
	for _, r := range fb.Receipts {
		r.TxID += uint64(k) * (hi - lo + 1)
	}
	return receiptBlock(tb, fb.Receipts)
}

// sectionOf reads a payload as a lookup does.
func sectionOf(tb testing.TB, payload []byte) wire.ReceiptSection {
	tb.Helper()
	var sec wire.ReceiptSection
	if err := wire.DecodeReceiptSection(payload, &sec); err != nil {
		tb.Fatal(err)
	}
	return sec
}

// TestReceiptLogOwnsItsBytes: once a block's receipts are filed, the
// payload they were read from can be overwritten (or collected)
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

	log := NewReceiptLog(0)
	for _, want := range filePayload(t, log, payload) { // files from a copy it then overwrites
		got := log.Receipt(want.TxID)
		if got == nil {
			t.Fatalf("receipt %d not on file", want.TxID)
		}
		if !reflect.DeepEqual(got, want) {
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

// TestReceiptLogAnswersAsTheBlocks: for every id of real `FT transfer`
// and `ProofIPFS register` blocks — filed over several laps of a log
// smaller than the chain, with a block re-delivered whole, another in
// part, and one long evicted filed again — the log answers as the model
// of its contract does, each receipt equal to the one the building
// decoder reads from the newest block carrying it: id, outcome, gas,
// error, shard, epoch and event bytes.
func TestReceiptLogAnswersAsTheBlocks(t *testing.T) {
	const epochs, perBlock, limit = 8, 250, 600
	for _, w := range []*workload.Workload{workload.FTTransfer(), workload.ProofIPFSRegister()} {
		w, env := provisioned(t, w, perBlock)
		payloads := workloadBlocks(t, w, env, epochs, perBlock)
		var ids []uint64
		for _, p := range payloads {
			for _, at := range sectionOf(t, p).Receipts {
				ids = append(ids, at.ID)
			}
		}
		failed := 0
		l := NewReceiptLog(limit)
		model := &receiptModel{limit: limit, on: map[uint64]*chain.Receipt{}}
		deliver := func(payload []byte, what string) {
			recs := filePayload(t, l, payload)
			for _, r := range recs {
				if !r.Success {
					failed++
				}
			}
			model.add(recs)
			model.check(t, l, ids, w.Name+": "+what)
		}
		for e, p := range payloads {
			deliver(p, fmt.Sprintf("block %d", e))
			switch e {
			case 3:
				deliver(payloads[2], "block 2 again")
			case 5:
				fb, err := wire.DecodeFinalBlock(payloads[4])
				if err != nil {
					t.Fatal(err)
				}
				var part []*chain.Receipt
				for i := 1; i < len(fb.Receipts); i += 2 {
					part = append(part, fb.Receipts[i])
				}
				deliver(receiptBlock(t, part), "half of block 4 again")
			case 7:
				deliver(payloads[0], "block 0 again")
			}
		}
		t.Logf("%s: %d receipts delivered, %d of them failed", w.Name, len(ids), failed)
	}
}

// TestReceiptLogRuns: real `FT transfer` receipts at the edges of the
// run coding — a block whose ids cross a uvarint width inside a run, so
// its receipts change length there; blocks of 1, 64 and 65 receipts;
// run heads filed again, their run-mates still read through them; and a
// returned receipt's events overwritten by the caller. Every id reads
// back equal to the building decoder's receipt after every step.
func TestReceiptLogRuns(t *testing.T) {
	fb, err := wire.DecodeFinalBlock(ftBlock(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	// numbered is the block's first n receipts as transactions first,
	// first+1, …
	numbered := func(first uint64, n int) []*chain.Receipt {
		recs := make([]*chain.Receipt, n)
		for i := range recs {
			r := *fb.Receipts[i]
			r.TxID = first + uint64(i)
			recs[i] = &r
		}
		return recs
	}
	l := NewReceiptLog(0)
	model := &receiptModel{limit: DefaultReceiptCap, on: map[uint64]*chain.Receipt{}}
	var ids []uint64
	deliver := func(recs []*chain.Receipt, what string) {
		for _, r := range recs {
			ids = append(ids, r.TxID)
		}
		model.add(file(t, l, recs))
		model.check(t, l, ids, what)
	}

	// Ids 16 284 to 16 483: a uvarint is 2 bytes below 16 384 and 3 from
	// it on, a change of length 36 receipts into the block's second run.
	wide := numbered(1<<14-100, 200)
	deliver(wide, "ids across a uvarint width")
	if a, b := len(sectionOf(t, receiptBlock(t, wide[99:100])).Bytes), len(sectionOf(t, receiptBlock(t, wide[100:101])).Bytes); a+1 != b {
		t.Fatalf("receipts %d and %d are %d and %d bytes: no width crossed", wide[99].TxID, wide[100].TxID, a, b)
	}
	for i, n := range []int{1, 64, 65} {
		deliver(numbered(uint64(100_000*(i+1)), n), fmt.Sprintf("a block of %d", n))
	}

	// Re-file the heads of the wide block's first two runs, with new
	// content, and one of their run-mates: the older entries are
	// shadowed, the heads' bytes stay for the rest of their runs.
	again := []*chain.Receipt{wide[0], wide[64], wide[65]}
	for i, r := range again {
		c := *r
		c.GasUsed += 1000
		again[i] = &c
	}
	deliver(again, "run heads filed again")

	// What a caller does with a returned receipt's bytes is its own
	// business: the log answers as before, the head's run-mates too.
	for _, id := range []uint64{wide[1].TxID, wide[64].TxID, 100_000} {
		r := l.Receipt(id)
		for i := range r.RawEvents {
			r.RawEvents[i] ^= 0xFF
		}
	}
	model.check(t, l, ids, "returned receipts overwritten")
}

// TestReceiptLogRetention puts a ceiling on what a filed receipt keeps
// alive: DefaultReceiptCap receipts in 50 blocks of 2000 token
// transfers, each read from its own payload, then everything but the
// log dropped. A token transfer's receipt is ~113 B on the wire; coded
// against its run's head it keeps ~50, its index entry 12 and its share
// of the head and the head table ~2. (Keeping each block's section as
// it arrived held ~127 B; a header, an index map entry and a ring slot
// per receipt ~180 B; each chain.Receipt, and through its RawEvents the
// whole payload with its deltas, ~400 B.) The log's Bytes must say what
// it holds, within 5%.
func TestReceiptLogRetention(t *testing.T) {
	const blocks, perBlock, ceiling = 50, 2000, 80
	payload := ftBlock(t, perBlock)
	log := NewReceiptLog(0)
	before := liveHeap()
	for k := 0; k < blocks; k++ {
		sec := sectionOf(t, anotherBlock(t, payload, k))
		if err := log.File(sec.Bytes, sec.Receipts); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(liveHeap() - before)
	if log.Len() != DefaultReceiptCap || blocks*perBlock != DefaultReceiptCap {
		t.Fatalf("%d receipts on file, want %d", log.Len(), DefaultReceiptCap)
	}
	per := grown / int64(log.Len())
	t.Logf("%d receipts keep %d B alive, %d B each; the log counts %d B; a block is %d B per receipt on the wire",
		log.Len(), grown, per, log.Bytes(), len(payload)/perBlock)
	if per > ceiling {
		t.Errorf("a filed receipt keeps %d B alive, want at most %d", per, ceiling)
	}
	if off := int64(log.Bytes()) - grown; 20*off > grown || -20*off > grown {
		t.Errorf("the log counts %d B, it keeps %d B alive", log.Bytes(), grown)
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

// BenchmarkReceiptLogFile files one 4000-receipt block per op into a
// log at capacity, so every op also evicts a block's worth. Reading the
// block (wire.DecodeReceiptSection) is outside the timer. A block is one
// allocation, its coded receipts and index together. held-B/receipt is
// what the log counts it holds (Bytes) per receipt on file.
func BenchmarkReceiptLogFile(b *testing.B) {
	const perBlock = 4000
	payload := ftBlock(b, perBlock)
	log := NewReceiptLog(0)
	k := 0
	for ; log.Len() < DefaultReceiptCap; k++ {
		sec := sectionOf(b, anotherBlock(b, payload, k))
		if err := log.File(sec.Bytes, sec.Receipts); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	var bytes, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sec := sectionOf(b, anotherBlock(b, payload, k+i))
		runtime.ReadMemStats(&before)
		b.StartTimer()
		err := log.File(sec.Bytes, sec.Receipts)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		sinkReceipt = log.Receipt(sec.Receipts[0].ID)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perBlock, "ns/receipt")
	b.ReportMetric(float64(bytes)/float64(b.N)/perBlock, "B/receipt")
	b.ReportMetric(float64(mallocs)/float64(b.N)/perBlock, "allocs/receipt")
	b.ReportMetric(float64(log.Bytes())/float64(log.Len()), "held-B/receipt")
}
