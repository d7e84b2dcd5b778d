package node

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// stepFx is a recording stand-in for the runtime: it keeps every
// effect a handler makes, so a test can drive the handler event by
// event with no goroutine and no clock.
type stepFx struct {
	sends   []stepSend
	armed   map[uint64]time.Time
	replies []*call
}

type stepSend struct {
	to      string
	typ     wire.MsgType
	payload []byte
}

func newStepFx() *stepFx { return &stepFx{armed: make(map[uint64]time.Time)} }

func (f *stepFx) send(to string, frame []byte) error {
	typ, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		return err
	}
	f.sends = append(f.sends, stepSend{to, typ, payload})
	return nil
}

func (f *stepFx) arm(key uint64, at time.Time) { f.armed[key] = at }
func (f *stepFx) cancel(key uint64)            { delete(f.armed, key) }
func (f *stepFx) reply(c *call, res any, err error) {
	c.res, c.err = res, err
	f.replies = append(f.replies, c)
}

// TestRolesStepWithoutRuntime drives each role's handler by hand
// through a recording runtime, at a fixed instant that no clock moves:
// the committee's epoch from the tick call through a lost MicroBlock
// to the collect deadline and, with no block source, a catch-up
// request it answers with a state image; a replica's catch-up request;
// and a lookup's request until its deadline.
func TestRolesStepWithoutRuntime(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)

	t.Run("ds", func(t *testing.T) {
		canonical, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		replica, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		shards := []string{"shard-0", "shard-1", "shard-2"}
		d, err := NewDS("ds", canonical, NewChanNetwork().Endpoint("ds"), shards, DSLookups("lookup"))
		if err != nil {
			t.Fatal(err)
		}
		fx := newStepFx()
		for i := 0; i < 30; i++ {
			payload, err := wire.EncodeSubmit(&wire.Submit{Corr: uint64(i), Tx: w.Next(env)})
			if err != nil {
				t.Fatal(err)
			}
			if !d.frame(fx, now, "lookup", wire.MsgSubmit, payload) {
				t.Fatal("submission refused")
			}
		}
		fx.sends = nil

		tick := &call{}
		d.call(fx, now, tick)
		if len(fx.sends) != len(shards) {
			t.Fatalf("a tick sent %d frames, want a TxBatch to each of %d shards", len(fx.sends), len(shards))
		}
		batches := make([]*wire.TxBatch, len(shards))
		for i, s := range fx.sends {
			b, err := wire.DecodeTxBatch(s.payload)
			if err != nil || s.typ != wire.MsgTxBatch || s.to != shards[b.Shard] || b.Shard != i {
				t.Fatalf("send %d: %s to %s (%v), want shard %d's TxBatch", i, s.typ, s.to, err, i)
			}
			batches[i] = b
		}
		if at, ok := fx.armed[collectDeadline]; !ok || !at.Equal(now.Add(d.cfg.timeout)) {
			t.Fatalf("collect deadline %v (armed %v), want %v", at, ok, now.Add(d.cfg.timeout))
		}
		microBlock := func(s int) []byte {
			mb, err := replica.ExecuteShard(s, batches[s].Txs)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := wire.EncodeMicroBlock(mb)
			if err != nil {
				t.Fatal(err)
			}
			return payload
		}
		for _, s := range []int{0, 2} {
			if !d.frame(fx, now, shards[s], wire.MsgMicroBlock, microBlock(s)) {
				t.Fatalf("shard %d's MicroBlock from its node refused", s)
			}
		}
		if d.frame(fx, now, "shard-0", wire.MsgMicroBlock, microBlock(1)) {
			t.Error("shard 1's MicroBlock from shard-0's node taken")
		}
		if len(fx.replies) != 0 {
			t.Fatal("the tick was answered before its epoch ended")
		}

		d.deadline(fx, now.Add(d.cfg.timeout), collectDeadline)
		if len(fx.replies) != 1 || fx.replies[0] != tick {
			t.Fatalf("%d replies after the collect deadline, want the tick's", len(fx.replies))
		}
		res, ok := tick.res.(TickResult)
		if !ok || res.Err != nil {
			t.Fatalf("tick answered %#v", tick.res)
		}
		if lost := len(batches[1].Txs); res.Stats.LostBlocks != 1 || res.Stats.Lost != lost || lost == 0 {
			t.Errorf("lost %d blocks, %d transactions; want shard 1's block and its %d transactions",
				res.Stats.LostBlocks, res.Stats.Lost, lost)
		}
		if _, ok := fx.armed[collectDeadline]; ok {
			t.Error("the collect deadline is still armed after the epoch")
		}
		blocks := fx.sends[len(shards):]
		if len(blocks) != 1+len(shards) {
			t.Fatalf("%d frames after the TxBatches, want the FinalBlock to 1 lookup and %d shards", len(blocks), len(shards))
		}
		for i, s := range blocks {
			want := "lookup"
			if i > 0 {
				want = shards[i-1]
			}
			if s.typ != wire.MsgFinalBlock || s.to != want {
				t.Errorf("broadcast %d: %s to %s, want final_block to %s", i, s.typ, s.to, want)
			}
		}

		fresh, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		fx.sends = nil
		req := wire.EncodeBlockRequest(&wire.BlockRequest{From: fresh.Epoch, To: canonical.Epoch})
		if !d.frame(fx, now, "shard-1", wire.MsgBlockRequest, req) {
			t.Fatal("block request refused")
		}
		// A state image: one frame per record, from the header to the
		// trailer.
		var image []byte
		for i, s := range fx.sends {
			if s.to != "shard-1" || s.typ != wire.MsgStateImage {
				t.Fatalf("frame %d of the answer to a block request is %s to %s, want a state image to shard-1", i, s.typ, s.to)
			}
			image = append(image, s.payload...)
		}
		if n := len(fx.sends); n < 3 || wire.FrameMsgType(fx.sends[0].payload) != wire.MsgSnapshotHeader ||
			wire.FrameMsgType(fx.sends[n-1].payload) != wire.MsgSnapshotEnd {
			t.Fatalf("a block request to a committee with no source sent %d frames, want a state image run from its header to its trailer", n)
		}
		if applied, err := store.ApplyImage(fresh, image); !applied || err != nil {
			t.Fatalf("image over a fresh genesis: applied %v, %v", applied, err)
		}
		if got, want := fresh.StateRoot(), canonical.StateRoot(); got != want {
			t.Errorf("root over the image %s, committee %s", got, want)
		}
	})

	t.Run("shard", func(t *testing.T) {
		envProd, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		fbs := produceFinalBlocks(t, envProd.Net, func() *chain.Tx { return w.Next(envProd) }, 3, 5)
		replica, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		sn := NewShard("shard-0", 0, replica, NewChanNetwork().Endpoint("shard-0"), "ds")
		payload, err := wire.EncodeFinalBlock(fbs[2])
		if err != nil {
			t.Fatal(err)
		}
		fx := newStepFx()
		if sn.frame(fx, now, "forger", wire.MsgFinalBlock, payload) || len(fx.sends) != 0 {
			t.Fatal("a FinalBlock from a peer that is not the committee was taken")
		}
		if !sn.frame(fx, now, "ds", wire.MsgFinalBlock, payload) {
			t.Fatal("the committee's FinalBlock refused")
		}
		if len(fx.sends) != 1 || fx.sends[0].to != "ds" || fx.sends[0].typ != wire.MsgBlockRequest {
			t.Fatalf("a block two epochs ahead sent %+v, want one block request to ds", fx.sends)
		}
		q, err := wire.DecodeBlockRequest(fx.sends[0].payload)
		if err != nil {
			t.Fatal(err)
		}
		if base := fbs[0].Epoch; q.From != base || q.To != base+2 {
			t.Errorf("block request [%d, %d), want [%d, %d)", q.From, q.To, base, base+2)
		}
	})

	t.Run("lookup", func(t *testing.T) {
		l := NewLookup("lookup", NewChanNetwork().Endpoint("lookup"), "ds")
		fx := newStepFx()
		submit := &call{req: w.Next(env)}
		l.call(fx, now, submit)
		if len(fx.sends) != 1 || fx.sends[0].to != "ds" || fx.sends[0].typ != wire.MsgSubmit {
			t.Fatalf("a submit call sent %+v, want one submission to ds", fx.sends)
		}
		if len(fx.armed) != 1 || len(l.pending) != 1 || len(fx.replies) != 0 {
			t.Fatalf("%d deadlines, %d pending, %d replies; want one waiting call", len(fx.armed), len(l.pending), len(fx.replies))
		}
		for key, at := range fx.armed {
			if !at.Equal(now.Add(l.timeout)) {
				t.Errorf("deadline %v, want %v", at, now.Add(l.timeout))
			}
			l.deadline(fx, at, key)
		}
		if len(fx.replies) != 1 || !errors.Is(submit.err, ErrTimeout) {
			t.Fatalf("%d replies, the submit's error %v; want ErrTimeout", len(fx.replies), submit.err)
		}
		if len(l.pending) != 0 || len(fx.armed) != 0 {
			t.Errorf("%d pending, %d deadlines armed after the timeout", len(l.pending), len(fx.armed))
		}
	})
}

// TestReplicaTakesBlocksOnlyFromItsCommittee: a forger sends shard-0 a
// FinalBlock for its current epoch that credits one account and
// carries the root the forger computed on a genesis replica of its
// own, so the block would apply and verify. The replica must refuse it
// as a receive error and end on the committee's root after the next
// epoch.
func TestReplicaTakesBlocksOnlyFromItsCommittee(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cluster, err := NewCluster(testGenesis(w),
		clusterDS(dsCollectTimeout(300*time.Millisecond)), ClusterShardNodes(ShardObs(reg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	forged := func(net *shard.Network) *shard.FinalBlock {
		acc := chain.NewAccountDelta()
		acc.AddBalance(env.Users[0], big.NewInt(1_000_000))
		return &shard.FinalBlock{Epoch: net.Epoch, Accounts: acc}
	}
	own, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	if err := own.ApplyFinalBlock(forged(own)); err != nil {
		t.Fatal(err)
	}
	fb := forged(cluster.Shards[0].Net())
	fb.StateRoot = own.StateRoot()
	payload, err := wire.EncodeFinalBlock(fb)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters["wire.recv_errors"]
	if err := cluster.chanNet.Endpoint("forger").Send("shard-0", wire.EncodeFrame(wire.MsgFinalBlock, payload)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if _, err := cluster.Lookup.SubmitTx(w.Next(env)); err != nil {
			t.Fatal(err)
		}
	}
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	settle(t, cluster.chanNet, cluster.DS.Net().Epoch, "shard-0")
	if got := reg.Snapshot().Counters["wire.recv_errors"]; got <= before {
		t.Error("the forged FinalBlock was not counted as a receive error")
	}
	cluster.Close()
	if err := cluster.Shards[0].Err(); err != nil {
		t.Errorf("shard-0: %v", err)
	}
	if got, want := cluster.Shards[0].Net().StateRoot(), cluster.DS.Net().StateRoot(); got != want {
		t.Errorf("shard-0 root %s, committee %s", got, want)
	}
}

// settle probes each named replica with a TxBatch for epoch: the
// MicroBlock that comes back proves the replica reached it.
func settle(t *testing.T, cn *ChanNetwork, epoch uint64, replicas ...string) {
	t.Helper()
	probe := cn.Endpoint("probe")
	defer probe.Close()
	for _, name := range replicas {
		var s int
		if _, err := fmt.Sscanf(name, "shard-%d", &s); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.EncodeTxBatch(&wire.TxBatch{Epoch: epoch, Shard: s})
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Send(name, wire.EncodeFrame(wire.MsgTxBatch, payload)); err != nil {
			t.Fatal(err)
		}
	}
	for seen := map[string]bool{}; len(seen) < len(replicas); {
		from, typ, payload := recvFrame(t, probe)
		if typ != wire.MsgMicroBlock {
			t.Fatalf("probe: got %s from %s, want micro_block", typ, from)
		}
		if mb, err := wire.DecodeMicroBlock(payload); err == nil && mb.Epoch == epoch {
			seen[from] = true
		}
	}
}

// rootlessBlock wraps the committee's endpoint and re-encodes the
// first FinalBlock it broadcasts to one peer with one extra credit and
// no state root: a block the replica cannot verify.
type rootlessBlock struct {
	Endpoint
	t      *testing.T
	to     string
	credit chain.Address
	done   atomic.Bool
}

func (r *rootlessBlock) Send(to string, frame []byte) error {
	if to != r.to || wire.FrameMsgType(frame) != wire.MsgFinalBlock || !r.done.CompareAndSwap(false, true) {
		return r.Endpoint.Send(to, frame)
	}
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		r.t.Error(err)
		return err
	}
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		r.t.Error(err)
		return err
	}
	if fb.Accounts == nil {
		fb.Accounts = chain.NewAccountDelta()
	}
	fb.Accounts.AddBalance(r.credit, big.NewInt(1_000_000))
	fb.StateRoot = ""
	if payload, err = wire.EncodeFinalBlock(fb); err != nil {
		r.t.Error(err)
		return err
	}
	return r.Endpoint.Send(to, wire.EncodeFrame(wire.MsgFinalBlock, payload))
}

// TestReplicaRefusesRootlessBlock: shard-1's first FinalBlock arrives
// from its committee with one extra credit and no state root. The
// replica must not apply a block it cannot verify: it refuses it,
// fetches the epoch again and ends on the committee's root.
func TestReplicaRefusesRootlessBlock(t *testing.T) {
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
	dsEp := &rootlessBlock{Endpoint: cn.Endpoint("ds"), t: t, to: "shard-1", credit: env.Users[0]}
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
		shards = append(shards, NewShard(name, i, replica, cn.Endpoint(name), "ds", ShardObs(reg, nil)))
	}
	lk := NewLookup("lookup", cn.Endpoint("lookup"), "ds")
	ds.Run()
	for _, s := range shards {
		s.Run()
		defer s.Close()
	}
	lk.Run()
	defer lk.Close()
	defer ds.Close()

	for e := 0; e < 3; e++ {
		for i := 0; i < 6; i++ {
			if _, err := lk.SubmitTx(w.Next(env)); err != nil {
				t.Fatal(err)
			}
		}
		if res := ds.Tick(); res.Err != nil {
			t.Fatalf("tick %d: %v", e, res.Err)
		}
	}
	settle(t, cn, canonical.Epoch, shardNames...)
	if got := reg.Snapshot().Counters["node.resyncs"]; got == 0 {
		t.Error("node.resyncs = 0: shard-1 never fetched the rootless block's epoch again")
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
}

// TestLookupTakesBlocksOnlyFromItsCommittee: a forger sends the lookup
// a FinalBlock, one epoch ahead, that marks a committed transaction
// failed. The lookup must count it as a receive error and keep the
// receipt and the chain head it had.
func TestLookupTakesBlocksOnlyFromItsCommittee(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	// The committee fans its FinalBlocks to a tap as to a lookup: the
	// forger starts from the bytes the lookup was sent.
	cluster, err := NewCluster(testGenesis(w), clusterLookup(LookupObs(reg, nil)), clusterDS(DSLookups("lookup", "tap")))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tap := cluster.chanNet.Endpoint("tap")
	lk := cluster.Lookup
	id, err := lk.SubmitTx(w.Next(env))
	if err != nil {
		t.Fatal(err)
	}
	if res := cluster.Tick(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if r := lk.WaitReceipt(id, 5*time.Second); r == nil || !r.Success {
		t.Fatalf("receipt %+v, want a committed transaction", r)
	}
	epoch, root := lk.Chain()

	_, typ, payload := recvFrame(t, tap)
	if typ != wire.MsgFinalBlock {
		t.Fatalf("tap got %s, want the FinalBlock", typ)
	}
	fb, err := wire.DecodeFinalBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fb.Receipts {
		if r.TxID == id {
			r.Success, r.Error = false, "forged"
		}
	}
	fb.Epoch++
	fb.StateRoot = "forged" + root
	if payload, err = wire.EncodeFinalBlock(fb); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters["wire.recv_errors"]
	if err := cluster.chanNet.Endpoint("forger").Send("lookup", wire.EncodeFrame(wire.MsgFinalBlock, payload)); err != nil {
		t.Fatal(err)
	}
	// The lookup handles its frames in arrival order: once the answer
	// to a later submission is in, the forged block has been handled.
	if _, err := lk.SubmitTx(w.Next(env)); err != nil {
		t.Fatal(err)
	}
	if r := lk.Receipt(id); r == nil || !r.Success {
		t.Errorf("receipt %+v after the forged block, want the committed one", r)
	}
	if e, r := lk.Chain(); e != epoch || r != root {
		t.Errorf("chain (%d, %s) after the forged block, want (%d, %s)", e, r, epoch, root)
	}
	if got := reg.Snapshot().Counters["wire.recv_errors"]; got <= before {
		t.Error("the forged FinalBlock was not counted as a receive error")
	}
}

// TestMicroBlockWithoutAccountsIsLost: shard 0's node answers its
// TxBatch with a well-formed MicroBlock that carries no account delta
// (the wire allows it). The committee must count the block lost and
// requeue the batch, not merge a nil delta.
func TestMicroBlockWithoutAccountsIsLost(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		canonical.Submit(w.Next(env))
	}
	cn := NewChanNetwork()
	defer cn.Close()
	shardNames := []string{"shard-0", "shard-1", "shard-2"}
	ds, err := NewDS("ds", canonical, cn.Endpoint("ds"), shardNames, dsCollectTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	shard0 := cn.Endpoint("shard-0")
	for i, name := range shardNames[1:] {
		replica, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		s := NewShard(name, i+1, replica, cn.Endpoint(name), "ds")
		s.Run()
		defer s.Close()
	}
	ds.Run()
	defer ds.Close()

	results := make(chan TickResult, 1)
	go func() { results <- ds.Tick() }()
	_, typ, payload := recvFrame(t, shard0)
	batch, err := wire.DecodeTxBatch(payload)
	if err != nil || typ != wire.MsgTxBatch {
		t.Fatalf("shard 0 got %s (%v), want its TxBatch", typ, err)
	}
	mb, err := wire.EncodeMicroBlock(&shard.MicroBlock{Shard: 0, Epoch: batch.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := shard0.Send("ds", wire.EncodeFrame(wire.MsgMicroBlock, mb)); err != nil {
		t.Fatal(err)
	}
	res := <-results
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if lost := len(batch.Txs); res.Stats.LostBlocks != 1 || res.Stats.Lost != lost || lost == 0 {
		t.Errorf("lost %d blocks, %d transactions; want shard 0's block and its %d transactions",
			res.Stats.LostBlocks, res.Stats.Lost, lost)
	}
}

// TestMicroBlockWithForgedKeypathIsLost: shard 0's own node answers its
// TxBatch with a MicroBlock whose one delta entry is filed under a
// keypath that is not its keys'. Merged, the entry would sit in the
// balances map under a name no key renders to: the root would not cover
// it, and the next state image could not rebuild its key. The committee
// must refuse the frame on receipt (wire.recv_errors), count the block
// lost and requeue the batch, as it does a corrupt one, and its state
// must still make an image.
func TestMicroBlockWithForgedKeypathIsLost(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		canonical.Submit(w.Next(env))
	}
	cn := NewChanNetwork()
	defer cn.Close()
	reg := obs.NewRegistry()
	shardNames := []string{"shard-0", "shard-1", "shard-2"}
	ds, err := NewDS("ds", canonical, cn.Endpoint("ds"), shardNames, dsCollectTimeout(500*time.Millisecond), DSObs(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	shard0 := cn.Endpoint("shard-0")
	for i, name := range shardNames[1:] {
		replica, err := testGenesis(w)()
		if err != nil {
			t.Fatal(err)
		}
		s := NewShard(name, i+1, replica, cn.Endpoint(name), "ds")
		s.Run()
		defer s.Close()
	}
	ds.Run()
	defer ds.Close()

	results := make(chan TickResult, 1)
	go func() { results <- ds.Tick() }()
	_, typ, payload := recvFrame(t, shard0)
	batch, err := wire.DecodeTxBatch(payload)
	if err != nil || typ != wire.MsgTxBatch {
		t.Fatalf("shard 0 got %s (%v), want its TxBatch", typ, err)
	}
	holder := []value.Value{env.Users[0].Value()}
	mb, err := wire.EncodeMicroBlock(&shard.MicroBlock{Shard: 0, Epoch: batch.Epoch, Accounts: chain.NewAccountDelta(),
		Deltas: []*chain.StateDelta{{Contract: env.Contract, Shard: 0, Fields: []chain.FieldDelta{{Name: "balances", Entries: []chain.EntryDelta{
			{Kind: chain.Overwrite, Keypath: "forged", Keys: holder, Value: value.Uint128(1)},
		}}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := shard0.Send("ds", wire.EncodeFrame(wire.MsgMicroBlock, mb)); err != nil {
		t.Fatal(err)
	}
	res := <-results
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if lost := len(batch.Txs); res.Stats.LostBlocks != 1 || res.Stats.Lost != lost || lost == 0 || canonical.MempoolSize() != lost {
		t.Errorf("lost %d blocks, %d transactions, %d requeued; want shard 0's block and its %d transactions",
			res.Stats.LostBlocks, res.Stats.Lost, canonical.MempoolSize(), lost)
	}
	if reg.Snapshot().Counters["wire.recv_errors"] == 0 {
		t.Error("the forged MicroBlock was not counted as a wire.recv_errors")
	}
	if err := store.Image(canonical, func([]byte) error { return nil }); err != nil {
		t.Fatalf("state image after the epoch: %v", err)
	}
}
