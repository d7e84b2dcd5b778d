package node

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// journalPayloads reads a role's journal and returns, per record, the
// FinalBlock payload that follows the checkpoint.
func journalPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for len(raw) > 0 {
		typ, payload, rest, err := wire.DecodeFrame(raw)
		if err != nil || typ != wire.MsgCheckpointBlock {
			t.Fatalf("%s: record %d: %v %v", dir, len(out), typ, err)
		}
		for i := 0; i < 3; i++ { // epoch, block number, next tx id
			_, n := binary.Uvarint(payload)
			payload = payload[n:]
		}
		out, raw = append(out, payload), rest
	}
	return out
}

// tapBroadcasts registers one more lookup-role peer that records the
// FinalBlock payloads the committee broadcasts.
func tapBroadcasts(t *testing.T, c *Cluster) (next func() []byte) {
	t.Helper()
	ep := c.chanNet.Endpoint("tap")
	hello := wire.EncodeHello(&wire.Hello{Name: "tap", Role: "lookup"})
	if err := ep.Send("ds", wire.EncodeFrame(wire.MsgHello, hello)); err != nil {
		t.Fatal(err)
	}
	// A state query comes back only after the hello before it was
	// handled: from here on the tap is in the fan-out.
	if err := ep.Send("ds", wire.EncodeFrame(wire.MsgStateQuery, wire.EncodeStateQuery(&wire.StateQuery{Corr: 1}))); err != nil {
		t.Fatal(err)
	}
	if _, typ, _ := recvFrame(t, ep); typ != wire.MsgStateResp {
		t.Fatalf("tap: got %s, want state_resp", typ)
	}
	return func() []byte {
		_, typ, payload := recvFrame(t, ep)
		if typ != wire.MsgFinalBlock {
			t.Fatalf("tap: got %s, want final_block", typ)
		}
		return payload
	}
}

// TestOneEncodePerEpoch counts what a committed epoch costs in
// conversions across every role of a journaling cluster: the FinalBlock
// is encoded exactly once — by the committee's journal step — and that
// payload is what is broadcast, what every replica journals and what a
// catch-up request is served; no receipt's events are built anywhere
// until a client asks for one.
func TestOneEncodePerEpoch(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cluster, err := NewCluster(testGenesis(w), ClusterStateDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	broadcast := tapBroadcasts(t, cluster)

	const epochs, perEpoch = 4, 30
	before := wire.Counts()
	var sent [][]byte
	var last uint64
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			if last, err = cluster.Lookup.SubmitTx(w.Next(envSrc)); err != nil {
				t.Fatal(err)
			}
		}
		if res := cluster.Tick(); res.Err != nil || res.Stats.Committed != perEpoch {
			t.Fatalf("epoch %d: %+v %v", e, res.Stats, res.Err)
		}
		sent = append(sent, broadcast())
	}
	// An empty epoch behind the last: a shard answers its batch only
	// after applying and journaling the block before it.
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	sent = append(sent, broadcast())
	rec := cluster.Lookup.WaitReceipt(last, 5*time.Second)
	if rec == nil {
		t.Fatalf("receipt %d never reached the lookup", last)
	}

	// Catch-up is served from the ring: the same payloads, unchanged.
	probe := cluster.chanNet.Endpoint("probe")
	base := cluster.DS.Net().Epoch - uint64(len(sent))
	req := wire.EncodeBlockRequest(&wire.BlockRequest{From: base, To: base + uint64(len(sent))})
	if err := probe.Send("ds", wire.EncodeFrame(wire.MsgBlockRequest, req)); err != nil {
		t.Fatal(err)
	}
	_, typ, respb := recvFrame(t, probe)
	if typ != wire.MsgBlockResponse {
		t.Fatalf("probe: got %s, want block_response", typ)
	}
	if want := wire.AppendBlockResponse(nil, base, base+uint64(len(sent)), sent); !bytes.Equal(respb, want) {
		t.Error("catch-up response is not the broadcast payloads, length-prefixed")
	}
	if _, err := wire.DecodeBlockResponse(respb); err != nil {
		t.Errorf("catch-up response: %v", err)
	}

	after := wire.Counts()
	if got := after.FinalBlockEncodes - before.FinalBlockEncodes; got != uint64(len(sent)) {
		t.Errorf("%d FinalBlock encodes for %d committed epochs across committee, 3 replicas, lookup and a catch-up", got, len(sent))
	}
	if got := after.EventDecodes - before.EventDecodes; got != 0 {
		t.Errorf("%d receipts had their events built with no client asking", got)
	}
	if rec.Events != nil || rec.RawEvents == nil {
		t.Errorf("the lookup filed a receipt with its events built: %+v", rec)
	}
	events, err := wire.ReceiptEvents(rec)
	if err != nil || len(events) != 1 {
		t.Fatalf("events on demand: %v, %v", events, err)
	}
	if name, _ := events[0].Entries["_eventname"].(value.Str); name.S != "TransferSuccess" {
		t.Errorf("event %v, want a TransferSuccess", events[0])
	}
	if got := wire.Counts().EventDecodes - before.EventDecodes; got != 1 {
		t.Errorf("showing one receipt built %d receipts' events", got)
	}

	cluster.Close()
	for _, s := range cluster.Shards {
		if err := s.Err(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	for _, role := range []string{"ds", "shard-0", "shard-1", "shard-2"} {
		got := journalPayloads(t, filepath.Join(dir, role))
		if len(got) != len(sent) {
			t.Fatalf("%s journaled %d blocks, %d were broadcast", role, len(got), len(sent))
		}
		for i := range got {
			if !bytes.Equal(got[i], sent[i]) {
				t.Errorf("%s: journaled block %d differs from the broadcast payload", role, i)
			}
		}
	}
}

// TestEditedBlockJournalsWhatWasApplied is the stale-bytes hazard: a
// block that was decoded (so it carries the bytes it came from) and
// then edited must be journaled as the encoding of what was applied,
// never as the bytes it arrived in; an unedited one is journaled as
// exactly those bytes.
func TestEditedBlockJournalsWhatWasApplied(t *testing.T) {
	w := testWorkload()
	envProd, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	fbs := produceFinalBlocks(t, envProd.Net, func() *chain.Tx { return w.Next(envProd) }, 3, 12)
	replica, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	replica.AttachStateStore(st)

	arrive := func(fb *shard.FinalBlock) (*shard.FinalBlock, []byte) {
		payload, err := wire.EncodeFinalBlock(fb)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.DecodeFinalBlock(payload)
		if err != nil {
			t.Fatal(err)
		}
		return dec, payload
	}
	var want [][]byte
	apply := func(fb *shard.FinalBlock) {
		t.Helper()
		enc, err := wire.EncodeFinalBlock(fb)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, enc)
		if err := replica.ApplyFinalBlock(fb); err != nil {
			t.Fatal(err)
		}
	}

	// Untouched: journaled as it arrived.
	intact, payload := arrive(fbs[0])
	apply(intact)
	if !bytes.Equal(want[0], payload) {
		t.Fatal("re-encoding a decoded block does not reproduce its payload")
	}
	// A receipt withheld and the root check waived — still a block the
	// replica accepts, no longer the block the bytes describe.
	trimmed, payload := arrive(fbs[1])
	trimmed.Receipts = trimmed.Receipts[1:]
	trimmed.StateRoot = ""
	apply(trimmed)
	if bytes.Equal(want[1], payload) {
		t.Fatal("the edit changed nothing the encoding shows")
	}
	// A struct copy, the way the skew tests fabricate blocks, with its
	// receipts in another array: the same content, journaled as such.
	arrived, _ := arrive(fbs[2])
	fab := *arrived
	fab.Receipts = append([]*chain.Receipt(nil), fab.Receipts...)
	apply(&fab)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got := journalPayloads(t, dir)
	if len(got) != len(want) {
		t.Fatalf("journal holds %d blocks, applied %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("block %d: the journal's bytes differ from EncodeFinalBlock of what was applied", i)
		}
	}
}

// TestSubmitAllocations puts a ceiling on what one submission costs the
// whole in-process cluster (lookup encode and wait, transport copy,
// committee decode, admission and response): the lookup's timer is one
// stopped timer, not a five-second time.After left to expire.
func TestSubmitAllocations(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(testGenesis(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tx := w.Next(envSrc)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := cluster.Lookup.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per submission", allocs)
	if allocs > 36 {
		t.Errorf("%.1f allocations per submission, want at most 36", allocs)
	}
}
