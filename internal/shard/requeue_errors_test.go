package shard_test

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
)

// TestReceiptErrSurvivesRequeue drives a transaction through the
// requeue path — deferred by the shard gas limit in its first epoch,
// dispatched again and failed in the next — and asserts the failure
// receipt's typed error still matches the executor sentinel with
// errors.Is, carrying the transaction's identity in the message.
func TestReceiptErrSurvivesRequeue(t *testing.T) {
	recs := receiptBook{}
	net := shard.NewNetwork(
		shard.WithShards(1),
		shard.WithGasLimits(3, 1000),
	)
	alice := chain.AddrFromUint(10)
	bob := chain.AddrFromUint(11)
	poor := chain.AddrFromUint(12)
	net.CreateUser(alice, 1_000_000)
	net.CreateUser(bob, 0)
	net.CreateUser(poor, 50) // covers gas, not the attempted amount

	transfer := func(from, to chain.Address, nonce, amount uint64) *chain.Tx {
		return &chain.Tx{
			Kind:     chain.TxTransfer,
			From:     from,
			To:       to,
			Nonce:    nonce,
			Amount:   new(big.Int).SetUint64(amount),
			GasLimit: 10,
			GasPrice: 1,
		}
	}
	// Three transfers fill the 3-gas epoch; the doomed transfer arrives
	// last and is deferred past the limit.
	for n := uint64(1); n <= 3; n++ {
		net.Submit(transfer(alice, bob, n, 1))
	}
	doomed := net.Submit(transfer(poor, bob, 1, 1000))

	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	if rec := recs[doomed]; rec != nil {
		t.Fatalf("doomed tx processed in epoch 1, want deferral: %+v", rec)
	}
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}

	rec := recs[doomed]
	if rec == nil {
		t.Fatal("doomed tx has no receipt after requeue epoch")
	}
	if rec.Success {
		t.Fatal("doomed tx succeeded, want insufficient balance")
	}
	if rec.Epoch != 2 {
		t.Errorf("doomed tx executed in epoch %d, want 2 (after requeue)", rec.Epoch)
	}
	if !errors.Is(rec.Err, shard.ErrInsufficientBalance) {
		t.Errorf("receipt Err = %v, want errors.Is ErrInsufficientBalance", rec.Err)
	}
	if !strings.Contains(rec.Error, "sender") || !strings.Contains(rec.Error, "nonce 1") {
		t.Errorf("receipt Error %q lacks tx identity context", rec.Error)
	}
	if rec.Error != rec.Err.Error() {
		t.Errorf("string/typed error mismatch: %q vs %q", rec.Error, rec.Err)
	}
}

// TestFailureReceiptsTypedOnBothRoutes: the same failing call carries
// the same sentinel whether a shard or the DS committee executed it,
// wrapped with the transaction's identity.
func TestFailureReceiptsTypedOnBothRoutes(t *testing.T) {
	recs := receiptBook{}
	net, probe, user := probeNet(t)
	inShard, viaDS := user(100, true, 1_000_000), user(200, false, 1_000_000)
	poorIn, poorDS := user(300, true, 20_000), user(400, false, 20_000)
	broke := user(500, false, 100) // cannot cover a 10 000-gas budget
	to := map[string]value.Value{"to": inShard.Value(), "amount": u128(1)}

	rows := []struct {
		name string
		tx   *chain.Tx
		ds   bool
		want error
	}{
		{"send beyond the contract's balance, shard", probeCall(inShard, probe, 1, 0, "Spill", to), false, shard.ErrInsufficientBalance},
		{"send beyond the contract's balance, DS", probeCall(viaDS, probe, 1, 0, "Spill", to), true, shard.ErrInsufficientBalance},
		{"accepted amount beyond the sender's balance, shard", probeCall(poorIn, probe, 1, 25_000, "Spill", to), false, shard.ErrInsufficientBalance},
		{"accepted amount beyond the sender's balance, DS", probeCall(poorDS, probe, 1, 25_000, "Spill", to), true, shard.ErrInsufficientBalance},
		{"message without recipient, shard", probeCall(inShard, probe, 2, 0, "NoRecipient", nil), false, shard.ErrMalformedMessage},
		{"message without recipient, DS", probeCall(viaDS, probe, 2, 0, "NoRecipient", nil), true, shard.ErrMalformedMessage},
		{"contract recipient, shard", probeCall(inShard, probe, 3, 0, "Loop", nil), false, shard.ErrContractRecipient},
		{"endless call chain, DS", probeCall(viaDS, probe, 3, 0, "Loop", nil), true, shard.ErrCallDepthExceeded},
		{"gas budget beyond the sender's balance, DS", probeCall(broke, probe, 1, 0, "NoRecipient", nil), true, shard.ErrInsufficientBalance},
	}
	ids := make([]uint64, len(rows))
	for i, row := range rows {
		ids[i] = net.Submit(row.tx)
	}
	if _, err := recs.add(net.RunEpoch()); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		rec := recs[ids[i]]
		if rec == nil || rec.Success {
			t.Errorf("%s: receipt %+v, want failure", row.name, rec)
			continue
		}
		if row.ds != (rec.Shard == -1) {
			t.Errorf("%s: executed on shard %d", row.name, rec.Shard)
		}
		if !errors.Is(rec.Err, row.want) {
			t.Errorf("%s: receipt Err = %v (Error %q), want errors.Is %v", row.name, rec.Err, rec.Error, row.want)
		}
		if rec.Err != nil && rec.Error != rec.Err.Error() {
			t.Errorf("%s: string/typed error mismatch: %q vs %q", row.name, rec.Error, rec.Err)
		}
		if !strings.Contains(rec.Error, "sender") {
			t.Errorf("%s: receipt Error %q lacks tx identity context", row.name, rec.Error)
		}
	}
}
