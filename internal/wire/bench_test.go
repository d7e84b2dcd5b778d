package wire

import (
	"testing"

	"cosplit/internal/shard"
)

// benchTxs is the transaction count of the decode benchmarks' block:
// the size of a lookup's or a replica's FinalBlock in the 2000-tx
// benchmark epochs.
const benchTxs = 2000

// BenchmarkDecodeFinalBlock decodes one 2000-transfer token block the
// way a replica does (build: every delta built) and the way a lookup
// does (receipts: every byte checked, nothing built, where each receipt
// lies recorded).
func BenchmarkDecodeFinalBlock(b *testing.B) {
	payload, err := EncodeFinalBlock(synthBlock(b, benchTxs))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		benchDecode(b, func() error { _, err := DecodeFinalBlock(payload); return err })
	})
	b.Run("receipts", func(b *testing.B) {
		var sec ReceiptSection
		benchDecode(b, func() error { return DecodeReceiptSection(payload, &sec) })
	})
}

// BenchmarkDecodeMicroBlock decodes the same transfers as one shard's
// MicroBlock, the message the DS committee decodes from every shard.
func BenchmarkDecodeMicroBlock(b *testing.B) {
	fb := synthBlock(b, benchTxs)
	payload, err := EncodeMicroBlock(&shard.MicroBlock{Shard: 1, Epoch: fb.Epoch, Receipts: fb.Receipts,
		Deltas: fb.Deltas, Accounts: fb.Accounts, GasUsed: benchTxs})
	if err != nil {
		b.Fatal(err)
	}
	benchDecode(b, func() error { _, err := DecodeMicroBlock(payload); return err })
}

// benchDecode times decode and reports it per transaction of the block.
func benchDecode(b *testing.B, decode func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchTxs), "ns/tx")
}
