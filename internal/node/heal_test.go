package node

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// spoilBlocks wraps the committee's Endpoint and gives the FinalBlocks
// and state images it sends to one peer a wrong state root: each block,
// and each image's header record, is decoded, its root changed,
// re-encoded and framed again, so the
// frame's CRC is valid and the block or image decodes — a corruption no
// transport check can see. With once set only the first FinalBlock
// broadcast is spoiled; otherwise every broadcast, every block of every
// catch-up response and every image is.
type spoilBlocks struct {
	Endpoint
	t    *testing.T
	to   string
	once bool
	done atomic.Bool
}

func (s *spoilBlocks) Send(to string, frame []byte) error {
	typ := wire.FrameMsgType(frame)
	if to != s.to || s.done.Load() || (typ != wire.MsgFinalBlock && (s.once || (typ != wire.MsgBlockResponse && typ != wire.MsgStateImage))) {
		return s.Endpoint.Send(to, frame)
	}
	if s.once {
		s.done.Store(true)
	}
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		s.t.Error(err)
		return err
	}
	switch typ {
	case wire.MsgFinalBlock:
		payload = s.spoil(payload)
	case wire.MsgStateImage:
		// An image frame carries one record; the header's is the root.
		htyp, hdr, _, err := wire.DecodeFrame(payload)
		if err != nil {
			s.t.Error(err)
			return err
		}
		if htyp != wire.MsgSnapshotHeader {
			return s.Endpoint.Send(to, frame)
		}
		h, err := wire.DecodeSnapshotHeader(hdr)
		if err != nil {
			s.t.Error(err)
			return err
		}
		root := []byte(h.Root)
		root[0] ^= 1
		h.Root = string(root)
		payload = wire.EncodeFrame(wire.MsgSnapshotHeader, wire.EncodeSnapshotHeader(h))
	default:
		resp, err := wire.DecodeBlockResponse(payload)
		if err != nil {
			s.t.Error(err)
			return err
		}
		blocks := make([][]byte, len(resp.Blocks))
		for i, fb := range resp.Blocks {
			enc, err := wire.SealedFinalBlock(fb)
			if err != nil {
				s.t.Error(err)
				return err
			}
			blocks[i] = s.spoil(enc)
		}
		payload = wire.AppendBlockResponse(nil, resp.From, resp.Head, blocks)
	}
	return s.Endpoint.Send(to, wire.EncodeFrame(typ, payload))
}

// spoil returns a FinalBlock payload with the block's root changed.
func (s *spoilBlocks) spoil(payload []byte) []byte {
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		s.t.Error(err)
		return payload
	}
	root := []byte(fb.StateRoot)
	root[0] ^= 1
	fb.StateRoot = string(root)
	out, err := wire.EncodeFinalBlock(fb)
	if err != nil {
		s.t.Error(err)
		return payload
	}
	return out
}

// TestReplicaHealsFailedBlock: shard-1 receives its first FinalBlock
// with a wrong state root inside a valid frame. The replica must undo
// the block, fetch the epoch again from the committee and rejoin: no
// Err, and every replica ends on the committee's root. When every copy
// of the block it is sent is spoiled, the committee, which has no
// journal, answers its re-fetch with a state image, spoiled too: the
// replica must stop on the image's fatal Err, on a replica still
// consistent with its own root.
func TestReplicaHealsFailedBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		once bool
	}{{"heals", true}, {"gives up", false}} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorkload()
			env, err := workload.Provision(w, true, shard.WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			canonical, err := testGenesis(w)()
			if err != nil {
				t.Fatal(err)
			}
			cn := NewChanNetwork()
			defer cn.Close()
			shardNames := []string{"shard-0", "shard-1", "shard-2"}
			dsEp := &spoilBlocks{Endpoint: cn.Endpoint("ds"), t: t, to: "shard-1", once: tc.once}
			ds, err := NewDS("ds", canonical, dsEp, shardNames, DSLookups("lookup"), dsCollectTimeout(300*time.Millisecond))
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
				var opts []ShardOption
				if i == 1 {
					opts = append(opts, ShardObs(reg, nil))
				}
				shards = append(shards, NewShard(name, i, replica, cn.Endpoint(name), "ds", opts...))
			}
			lk := NewLookup("lookup", cn.Endpoint("lookup"), "ds")
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

			const total, perEpoch = 24, 6
			submitted, committed := 0, 0
			for e := 0; e < 30 && committed < total; e++ {
				for i := 0; i < perEpoch && submitted < total; i++ {
					if _, err := lk.SubmitTx(w.Next(env)); err != nil {
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
				t.Fatalf("committed %d of %d", committed, total)
			}
			healer := shards[1]
			if !tc.once {
				deadline := time.Now().Add(5 * time.Second)
				for healer.Err() == nil && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				lk.Close()
				healer.Close()
				if err := healer.Err(); !errors.Is(err, store.ErrCorruptSnapshot) {
					t.Fatalf("shard-1 Err = %v, want the state image's fatal ErrCorruptSnapshot", err)
				}
				if got := reg.Snapshot().Counters["node.resyncs"]; got == 0 {
					t.Error("node.resyncs = 0: shard-1 never fetched the block again")
				}
				r := healer.Net()
				if r.Epoch >= canonical.Epoch || r.StateRoot() != r.RecomputeStateRoot() {
					t.Errorf("shard-1 at epoch %d (committee %d): root %s, recomputed %s",
						r.Epoch, canonical.Epoch, r.StateRoot(), r.RecomputeStateRoot())
				}
				return
			}

			// Settle: probe every replica with a head-epoch batch; the
			// MicroBlock reply proves the replica reached the head.
			target := canonical.Epoch
			probe := cn.Endpoint("probe")
			for i, name := range shardNames {
				payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: target, Shard: i})
				if err != nil {
					t.Fatal(err)
				}
				if err := probe.Send(name, wire.EncodeFrame(wire.MsgTxBatch, payload)); err != nil {
					t.Fatal(err)
				}
			}
			for seen := map[string]bool{}; len(seen) < len(shardNames); {
				from, typ, payload := recvFrame(t, probe)
				if typ != wire.MsgMicroBlock {
					t.Fatalf("probe: got %s from %s, want micro_block", typ, from)
				}
				if mb, err := wire.DecodeMicroBlock(payload); err == nil && mb.Epoch == target {
					seen[from] = true
				}
			}
			probe.Close()
			if got := reg.Snapshot().Counters["node.resyncs"]; got == 0 {
				t.Error("node.resyncs = 0: shard-1 never fetched the block again")
			}
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

// TestTickSerialized: Ticks from two goroutines run one epoch at a
// time — twenty distinct consecutive epochs, ending on the root a
// single caller reaches — and a Tick waiting for a MicroBlock that
// will never come returns ErrTransportClosed promptly once the
// committee is closed, as does a Tick queued behind it.
func TestTickSerialized(t *testing.T) {
	w := testWorkload()
	run := func(t *testing.T, callers int) string {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := NewCluster(testGenesis(w))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		for i := 0; i < 30; i++ {
			if _, err := cluster.Lookup.SubmitTx(w.Next(env)); err != nil {
				t.Fatal(err)
			}
		}
		epochs := make(chan uint64, 20)
		done := make(chan struct{})
		for c := 0; c < callers; c++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 20/callers; i++ {
					res := cluster.Tick()
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					epochs <- res.Stats.Epoch
				}
			}()
		}
		for c := 0; c < callers; c++ {
			<-done
		}
		close(epochs)
		seen, first := map[uint64]bool{}, ^uint64(0)
		for e := range epochs {
			seen[e], first = true, min(first, e)
		}
		for e := first; e < first+20; e++ {
			if !seen[e] {
				t.Errorf("%d callers: epoch %d missing from the results (%d distinct)", callers, e, len(seen))
			}
		}
		for _, s := range cluster.Shards {
			if err := s.Err(); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
		return cluster.DS.Net().StateRoot()
	}
	t.Run("two callers", func(t *testing.T) {
		if one, two := run(t, 1), run(t, 2); one != two {
			t.Errorf("root after two callers %s, after one %s", two, one)
		}
	})

	t.Run("close while waiting", func(t *testing.T) {
		cluster, err := NewCluster(testGenesis(w), clusterDS(dsCollectTimeout(time.Minute)))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		cluster.Shards[0].Close()
		results := make(chan TickResult, 2)
		for i := 0; i < 2; i++ {
			go func() { results <- cluster.DS.Tick() }()
		}
		for collecting := false; !collecting; {
			runtime.Gosched()
			cluster.DS.rt.mu.Lock()
			collecting = cluster.DS.collect != nil
			cluster.DS.rt.mu.Unlock()
		}
		cluster.DS.Close()
		for i := 0; i < 2; i++ {
			select {
			case res := <-results:
				if !errors.Is(res.Err, ErrTransportClosed) {
					t.Errorf("Tick after Close = %v, want ErrTransportClosed", res.Err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Tick still waiting 5s after Close")
			}
		}
	})
}
