package node

import (
	"path/filepath"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// dropFrames wraps an Endpoint and silently discards the first n
// inbound frames of one message type — a deterministic stand-in for a
// lost broadcast. Recv is single-consumer, so no locking is needed.
type dropFrames struct {
	Endpoint
	typ wire.MsgType
	n   int
}

func (d *dropFrames) Recv() (string, []byte, error) {
	for {
		from, frame, err := d.Endpoint.Recv()
		if err != nil {
			return from, frame, err
		}
		if d.n > 0 {
			if typ, _, _, derr := wire.DecodeFrame(frame); derr == nil && typ == d.typ {
				d.n--
				continue
			}
		}
		return from, frame, err
	}
}

// TestResyncAfterDroppedFinalBlock is the catch-up acceptance test: a
// shard replica deterministically misses one FinalBlock broadcast, so
// the next epoch's TxBatch arrives ahead of its chain. The replica
// must detect the skew, fetch the missed block from the committee
// (MsgBlockRequest), replay it through the root-verified apply path,
// and rejoin live — same post-resync root as the committee, no
// replica error, in both the channel and the TCP transport.
func TestResyncAfterDroppedFinalBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"chan", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorkload()
			envSrc, err := workload.Provision(w, true, shard.WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			canonical, err := testGenesis(w)()
			if err != nil {
				t.Fatal(err)
			}

			var endpoint func(name string) Endpoint
			if tc.tcp {
				hub, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer hub.Close()
				endpoint = func(name string) Endpoint {
					ep, err := DialTCP(hub.Addr(), name)
					if err != nil {
						t.Fatalf("dial %s: %v", name, err)
					}
					return ep
				}
			} else {
				cn := NewChanNetwork()
				defer cn.Close()
				endpoint = cn.Endpoint
			}

			shardNames := []string{"shard-0", "shard-1", "shard-2"}
			ds, err := NewDS("ds", canonical, endpoint("ds"), shardNames, DSLookups("lookup"))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			var shards []*ShardNode
			for i, name := range shardNames {
				replica, err := testGenesis(w)()
				if err != nil {
					t.Fatal(err)
				}
				ep := endpoint(name)
				var opts []ShardOption
				if i == 0 {
					// shard-0 loses the first FinalBlock broadcast.
					ep = &dropFrames{Endpoint: ep, typ: wire.MsgFinalBlock, n: 1}
					opts = append(opts, ShardObs(reg, nil))
				}
				shards = append(shards, NewShard(name, i, replica, ep, "ds", opts...))
			}
			lk := NewLookup("lookup", endpoint("lookup"), "ds")
			ds.Run()
			for _, s := range shards {
				s.Run()
			}
			lk.Run()
			defer ds.Close()
			defer lk.Close()
			for _, s := range shards {
				defer s.Close()
			}

			const epochs, perEpoch = 4, 6
			const total = epochs * perEpoch
			submitted, committed := 0, 0
			for e := 0; e < 30 && committed < total; e++ {
				for i := 0; i < perEpoch && submitted < total; i++ {
					if _, err := lk.SubmitTx(w.Next(envSrc)); err != nil {
						t.Fatal(err)
					}
					submitted++
				}
				res := ds.Tick()
				if res.Err != nil {
					t.Fatalf("tick %d: %v", e, res.Err)
				}
				committed += res.Stats.Committed
			}
			if committed != total {
				t.Fatalf("committed %d of %d after dropped FinalBlock", committed, total)
			}
			if got := reg.Snapshot().Counters["node.resyncs"]; got == 0 {
				t.Error("node.resyncs = 0: shard-0 never requested catch-up")
			}

			// Settle deterministically: over TCP the last FinalBlock
			// broadcast may still be in flight, so probe every replica with
			// a head-epoch batch — the MicroBlock reply proves the replica
			// reached the head (resyncing on the way if the probe won the
			// race against the broadcast).
			target := canonical.Epoch
			probe := endpoint("probe")
			for i, name := range shardNames {
				payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: target, Shard: i})
				if err != nil {
					t.Fatal(err)
				}
				if err := probe.Send(name, wire.EncodeFrame(wire.MsgTxBatch, payload)); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[string]bool)
			for len(seen) < len(shardNames) {
				from, typ, payload := recvFrame(t, probe)
				if typ != wire.MsgMicroBlock {
					t.Fatalf("probe: got %s from %s, want micro_block", typ, from)
				}
				mb, err := wire.DecodeMicroBlock(payload)
				if err != nil {
					t.Fatal(err)
				}
				if mb.Epoch == target {
					seen[from] = true
				}
			}
			probe.Close()

			// Afterwards every replica — including the one that resynced —
			// matches the canonical root bit for bit.
			lk.Close()
			for _, s := range shards {
				s.Close()
			}
			ds.Close()
			want := canonical.StateRoot()
			for _, s := range shards {
				if err := s.Err(); err != nil {
					t.Errorf("%s: replica error: %v", s.name, err)
				}
				if got := s.Net().StateRoot(); got != want {
					t.Errorf("%s: replica root %s, want %s", s.name, got, want)
				}
			}
		})
	}
}

// produceFinalBlocks drives epochs on a standalone canonical network —
// the same BeginEpoch/ExecuteShard/FinalizeEpoch pipeline the DS actor
// runs — and returns the sealed FinalBlocks, so a test can play
// committee with full control over delivery order.
func produceFinalBlocks(t *testing.T, net *shard.Network, next func() *chain.Tx, epochs, perEpoch int) []*shard.FinalBlock {
	t.Helper()
	var out []*shard.FinalBlock
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			net.Submit(next())
		}
		run := net.BeginEpoch()
		run.CollectFinalBlock()
		queues := run.Queues()
		blocks := make([]*shard.MicroBlock, len(queues))
		for s, q := range queues {
			mb, err := net.ExecuteShard(s, q)
			if err != nil {
				t.Fatalf("epoch %d shard %d: %v", e, s, err)
			}
			blocks[s] = mb
		}
		_, fb, err := net.FinalizeEpoch(run, blocks)
		if err != nil {
			t.Fatalf("finalize epoch %d: %v", e, err)
		}
		if fb == nil {
			t.Fatalf("epoch %d: nil FinalBlock", e)
		}
		out = append(out, fb)
	}
	return out
}

// recvFrame reads one frame from ep, failing the test if nothing
// arrives within 5s.
func recvFrame(t *testing.T, ep Endpoint) (string, wire.MsgType, []byte) {
	t.Helper()
	type res struct {
		from    string
		typ     wire.MsgType
		payload []byte
		err     error
	}
	ch := make(chan res, 1)
	go func() {
		from, frame, err := ep.Recv()
		if err != nil {
			ch <- res{err: err}
			return
		}
		typ, payload, _, err := wire.DecodeFrame(frame)
		ch <- res{from: from, typ: typ, payload: payload, err: err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.from, r.typ, r.payload
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
		return "", 0, nil
	}
}

// TestFinalBlockSkewHandling drives a single ShardNode from a fake
// committee endpoint and exercises every branch of handleFinalBlock
// and the catch-up protocol deterministically:
//
//   - a re-delivered old FinalBlock is harmless;
//   - a future FinalBlock (a real gap) triggers MsgBlockRequest — not
//     a replica error — and the stashed block drains after the served
//     gap is applied;
//   - a fabricated far-future block also triggers a request, and the
//     committee's "you are not behind" response (Head <= From, no
//     blocks) stands the replica down without error.
func TestFinalBlockSkewHandling(t *testing.T) {
	w := testWorkload()
	envProd, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	fbs := produceFinalBlocks(t, envProd.Net, func() *chain.Tx { return w.Next(envProd) }, 3, 5)

	cn := NewChanNetwork()
	defer cn.Close()
	dsEp := cn.Endpoint("ds") // the test plays committee
	replica, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sn := NewShard("shard-0", 0, replica, cn.Endpoint("shard-0"), "ds", ShardObs(reg, nil))
	sn.Run()
	defer sn.Close()

	send := func(typ wire.MsgType, payload []byte) {
		t.Helper()
		if err := dsEp.Send("shard-0", wire.EncodeFrame(typ, payload)); err != nil {
			t.Fatal(err)
		}
	}
	sendBlock := func(fb *shard.FinalBlock) {
		t.Helper()
		payload, err := wire.EncodeFinalBlock(fb)
		if err != nil {
			t.Fatal(err)
		}
		send(wire.MsgFinalBlock, payload)
	}
	// probe confirms (and synchronizes on) the replica's epoch: a
	// current-epoch TxBatch comes straight back as a MicroBlock.
	probe := func(epoch uint64) {
		t.Helper()
		payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: epoch, Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		send(wire.MsgTxBatch, payload)
		_, typ, p := recvFrame(t, dsEp)
		if typ != wire.MsgMicroBlock {
			t.Fatalf("probe epoch %d: got %s, want micro_block", epoch, typ)
		}
		mb, err := wire.DecodeMicroBlock(p)
		if err != nil {
			t.Fatal(err)
		}
		if mb.Epoch != epoch {
			t.Fatalf("probe: MicroBlock epoch %d, want %d", mb.Epoch, epoch)
		}
	}

	// Genesis provisioning commits setup epochs, so the produced chain
	// starts at fbs[0].Epoch, not 0.
	base := fbs[0].Epoch

	// Normal delivery: block base applies, replica reaches base+1.
	sendBlock(fbs[0])
	probe(base + 1)

	// Re-delivered old block: harmless, replica still at base+1.
	sendBlock(fbs[0])
	probe(base + 1)

	// Skip block base+1, deliver block base+2: the replica must stash
	// it and ask for the gap [base+1, base+2) instead of erroring.
	sendBlock(fbs[2])
	_, typ, payload := recvFrame(t, dsEp)
	if typ != wire.MsgBlockRequest {
		t.Fatalf("after future block: got %s, want block_request", typ)
	}
	q, err := wire.DecodeBlockRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if q.From != base+1 || q.To != base+2 {
		t.Fatalf("block request [%d, %d), want [%d, %d)", q.From, q.To, base+1, base+2)
	}
	// Serve the gap; the stashed block base+2 drains right after it.
	gap, err := wire.SealedFinalBlock(fbs[1])
	if err != nil {
		t.Fatal(err)
	}
	send(wire.MsgBlockResponse, wire.AppendBlockResponse(nil, base+1, base+3, [][]byte{gap}))
	probe(base + 3)

	// A fabricated far-future block: the replica requests [base+3,
	// base+10); the committee answers "head is base+3, you are not
	// behind" and the replica stands down with no error.
	fab := *fbs[2]
	fab.Epoch = base + 10
	sendBlock(&fab)
	_, typ, payload = recvFrame(t, dsEp)
	if typ != wire.MsgBlockRequest {
		t.Fatalf("after fabricated block: got %s, want block_request", typ)
	}
	if q, err = wire.DecodeBlockRequest(payload); err != nil {
		t.Fatal(err)
	}
	if q.From != base+3 || q.To != base+10 {
		t.Fatalf("block request [%d, %d), want [%d, %d)", q.From, q.To, base+3, base+10)
	}
	send(wire.MsgBlockResponse, wire.AppendBlockResponse(nil, base+3, base+3, nil))
	probe(base + 3)

	if err := sn.Err(); err != nil {
		t.Fatalf("replica error after skew handling: %v", err)
	}
	if got := reg.Snapshot().Counters["node.resyncs"]; got != 2 {
		t.Errorf("node.resyncs = %d, want 2", got)
	}
	want := envProd.Net.StateRoot()
	sn.Close()
	if got := sn.Net().StateRoot(); got != want {
		t.Errorf("post-resync root %s, want %s", got, want)
	}
}

// TestReplicaRejoinsFromStateImage is a restarted -node shard process
// that lost its directory: a replica on a fresh genesis with a fresh,
// recovered store, which reads no directory of the committee's, joins
// a committee restarted from its own directory (snapshots every 2
// epochs) after 12 epochs. The committee's journal no longer holds
// genesis, so it answers the replica's catch-up request with a state
// image. The replica must reach the committee's root with no Err and
// one image applied, and its own directory must recover to the
// committee's epoch.
func TestReplicaRejoinsFromStateImage(t *testing.T) {
	w := testWorkload()
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, err := NewCluster(testGenesis(w), ClusterStateDir(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	// drive runs epochs and counts the MicroBlocks they lost.
	drive := func(lk *Lookup, tick func() TickResult, epochs int) (lost int) {
		t.Helper()
		for e := 0; e < epochs; e++ {
			for i := 0; i < 6; i++ {
				if _, err := lk.SubmitTx(w.Next(envSrc)); err != nil {
					t.Fatal(err)
				}
			}
			res := tick()
			if res.Err != nil {
				t.Fatalf("epoch %d: %v", e, res.Err)
			}
			lost += res.Stats.LostBlocks
		}
		return lost
	}
	if lost := drive(first.Lookup, first.Tick, 12); lost != 0 {
		t.Fatalf("the first run lost %d MicroBlocks", lost)
	}
	first.Close()

	// Every role but shard-1 recovers from its own directory; shard-1
	// starts from genesis and a directory of its own that is empty.
	openRecovered := func(sub string, n *shard.Network) *store.Store {
		t.Helper()
		st, err := store.Open(sub, store.WithSnapshotEvery(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Recover(n); err != nil {
			t.Fatalf("recover %s: %v", sub, err)
		}
		n.AttachStateStore(st)
		return st
	}
	genesis := func() *shard.Network {
		t.Helper()
		n, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cn := NewChanNetwork()
	defer cn.Close()
	canonical := genesis()
	dsStore := openRecovered(filepath.Join(dir, "ds"), canonical)
	defer dsStore.Close()
	shardNames := []string{"shard-0", "shard-1", "shard-2"}
	ds, err := NewDS("ds", canonical, cn.Endpoint("ds"), shardNames, DSLookups("lookup"), DSBlockSource(dsStore))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fresh := t.TempDir()
	var shards []*ShardNode
	for i, name := range shardNames {
		replica, sub, opts := genesis(), filepath.Join(dir, name), []ShardOption(nil)
		if i == 1 {
			sub, opts = fresh, []ShardOption{ShardObs(reg, nil)}
		}
		defer openRecovered(sub, replica).Close()
		shards = append(shards, NewShard(name, i, replica, cn.Endpoint(name), "ds", opts...))
	}
	if shards[1].Net().Epoch >= canonical.Epoch {
		t.Fatalf("shard-1 starts at epoch %d, the committee at %d: nothing to catch up", shards[1].Net().Epoch, canonical.Epoch)
	}
	lk := NewLookup("lookup", cn.Endpoint("lookup"), "ds")
	ds.Run()
	for _, s := range shards {
		s.Run()
	}
	lk.Run()
	lost := drive(lk, ds.Tick, 3)
	lk.Close()
	for _, s := range shards {
		s.Close()
	}
	ds.Close()

	for _, s := range shards {
		if err := s.Err(); err != nil {
			t.Fatalf("%s: replica error: %v", s.name, err)
		}
	}
	// No MicroBlock was lost, so every replica was at the head when the
	// last tick began; its FinalBlock is sent before the tick answers,
	// and Close drains what was sent.
	if lost != 0 {
		t.Fatalf("shard-1 rejoining lost %d MicroBlocks", lost)
	}
	want, wantEpoch := canonical.StateRoot(), canonical.Epoch
	for _, s := range shards {
		if got := s.Net(); got.StateRoot() != want || got.Epoch != wantEpoch {
			t.Errorf("%s: epoch %d root %s, want epoch %d root %s", s.name, got.Epoch, got.StateRoot(), wantEpoch, want)
		}
	}
	if got := reg.Snapshot().Counters["node.state_images"]; got != 1 {
		t.Errorf("node.state_images = %d, want 1", got)
	}
	again := genesis()
	st, err := store.Open(fresh, store.WithSnapshotEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Recover(again); err != nil {
		t.Fatalf("recover shard-1's own directory: %v", err)
	}
	if again.Epoch != wantEpoch || again.StateRoot() != want {
		t.Errorf("shard-1's directory recovers to epoch %d root %s, want epoch %d root %s", again.Epoch, again.StateRoot(), wantEpoch, want)
	}
}
