package node

import (
	"errors"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// failImages wraps an Endpoint whose every state image send fails, and
// counts the attempts.
type failImages struct {
	Endpoint
	tries atomic.Int64
}

var errSendFailed = errors.New("send failed")

func (f *failImages) Send(to string, frame []byte) error {
	if wire.FrameMsgType(frame) == wire.MsgStateImage {
		f.tries.Add(1)
		return errSendFailed
	}
	return f.Endpoint.Send(to, frame)
}

// TestImageSendErrorsCounted: a committee whose endpoint fails to send
// a state image stops at the first failed frame and counts it in
// node.image_send_errors, once per image; the request is no receive
// error.
func TestImageSendErrorsCounted(t *testing.T) {
	w := testWorkload()
	canonical, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	cn := NewChanNetwork()
	defer cn.Close()
	ep := &failImages{Endpoint: cn.Endpoint("ds")}
	reg := obs.NewRegistry()
	ds, err := NewDS("ds", canonical, ep, []string{"shard-0", "shard-1", "shard-2"}, DSObs(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	ds.Run()
	defer ds.Close()
	replica := cn.Endpoint("shard-1")
	defer replica.Close()

	// No block source: every request behind the head is answered with an
	// image.
	req := wire.EncodeFrame(wire.MsgBlockRequest, wire.EncodeBlockRequest(&wire.BlockRequest{From: 0, To: canonical.Epoch}))
	failed := reg.Counter("node.image_send_errors")
	for want := int64(1); want <= 2; want++ {
		if err := replica.Send("ds", req); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); failed.Value() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("node.image_send_errors = %d after %d failed images", failed.Value(), want)
			}
		}
		if got := ep.tries.Load(); got != want {
			t.Fatalf("%d image frames tried for %d images: a failed send must end its image", got, want)
		}
	}
	if got := reg.Counter("wire.recv_errors").Value(); got != 0 {
		t.Errorf("wire.recv_errors = %d; a request answered by a failed image is no receive error", got)
	}
}

// seedLargeTokenState gives the token contract more balances than three
// of the store's 4096-component state records hold, and allowances
// holding a nested map of several entries and an empty nested map, then
// rebuilds the root.
func seedLargeTokenState(n *shard.Network, contract chain.Address) {
	c := n.Contracts.Get(contract)
	st := eval.NewMemState(c.Checked.FieldTypes)
	maps.Copy(st.Fields, c.Snapshot().Fields)
	balances := st.Fields["balances"].(*value.Map).Copy()
	for i := 0; i < 3*4096+100; i++ {
		balances.Set(chain.AddrFromUint(uint64(1_000_000+i)).Value(), value.Uint128(uint64(i+1)))
	}
	spenders := value.NewMap(ast.TyByStr20, ast.TyUint128)
	for i := 0; i < 5; i++ {
		spenders.Set(chain.AddrFromUint(uint64(2_000_000+i)).Value(), value.Uint128(7))
	}
	allowances := st.Fields["allowances"].(*value.Map).Copy()
	allowances.Set(chain.AddrFromUint(3_000_000).Value(), spenders)
	allowances.Set(chain.AddrFromUint(3_000_001).Value(), value.NewMap(ast.TyByStr20, ast.TyUint128))
	st.Fields["balances"], st.Fields["allowances"] = balances, allowances
	c.ReplaceState(st)
	n.RebuildStateRoots()
}

// TestReplicaRejoinsFromLargeImage: a committee whose state is many
// records long answers a fresh replica's catch-up request with a state
// image of as many frames, header first and trailer last. The replica
// applies nothing from a run missing a middle frame (a receive error)
// or its trailer, drops such a partial run when a header opens the next,
// applies a whole run to the committee's root, and goes on applying the
// committee's blocks.
func TestReplicaRejoinsFromLargeImage(t *testing.T) {
	w := testWorkload()
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	canonical := env.Net
	next := func() *chain.Tx { return w.Next(env) }
	produceFinalBlocks(t, canonical, next, 1, 6)
	seedLargeTokenState(canonical, env.Contract)
	produceFinalBlocks(t, canonical, next, 1, 6)

	now := time.Unix(1_700_000_000, 0)
	d, err := NewDS("ds", canonical, NewChanNetwork().Endpoint("ds"), []string{"shard-0", "shard-1", "shard-2"})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := testGenesis(w)()
	if err != nil {
		t.Fatal(err)
	}
	genesisRoot, genesisEpoch := fresh.StateRoot(), fresh.Epoch
	fx := newStepFx()
	req := wire.EncodeBlockRequest(&wire.BlockRequest{From: fresh.Epoch, To: canonical.Epoch})
	if !d.frame(fx, now, "shard-1", wire.MsgBlockRequest, req) {
		t.Fatal("block request refused")
	}
	run, records := fx.sends, 0
	for i, s := range run {
		if s.to != "shard-1" || s.typ != wire.MsgStateImage {
			t.Fatalf("frame %d: %s to %s, want a state image to shard-1", i, s.typ, s.to)
		}
		if wire.FrameMsgType(s.payload) == wire.MsgStateDelta {
			records++
		}
	}
	if n := len(run); wire.FrameMsgType(run[0].payload) != wire.MsgSnapshotHeader || wire.FrameMsgType(run[n-1].payload) != wire.MsgSnapshotEnd || records < 4 {
		t.Fatalf("the image is %d frames, %d of them state records; want a run from header to trailer with one frame per record", n, records)
	}

	sn := NewShard("shard-1", 1, fresh, NewChanNetwork().Endpoint("shard-1"), "ds")
	feed := func(frames []stepSend) (ok bool) {
		ok = true
		for _, s := range frames {
			ok = sn.frame(fx, now, "ds", s.typ, s.payload)
		}
		return ok
	}
	unchanged := func(what string) {
		t.Helper()
		if fresh.StateRoot() != genesisRoot || fresh.Epoch != genesisEpoch || sn.Err() != nil || sn.images.Value() != 0 {
			t.Fatalf("%s: replica at epoch %d root %s, images %d, err %v; want it untouched",
				what, fresh.Epoch, fresh.StateRoot(), sn.images.Value(), sn.Err())
		}
	}
	fx.sends = nil
	if feed(append(append([]stepSend{}, run[:2]...), run[3:]...)) {
		t.Error("an image missing a middle frame was taken")
	}
	unchanged("an image missing a middle frame")
	if !feed(run[:len(run)-1]) {
		t.Error("a frame of an image still open was refused")
	}
	unchanged("an image missing its trailer")
	if !feed(run) {
		t.Fatal("the whole image was refused")
	}
	if fresh.StateRoot() != canonical.StateRoot() || fresh.Epoch != canonical.Epoch || sn.images.Value() != 1 || sn.Err() != nil {
		t.Fatalf("replica over the image: epoch %d root %s, images %d, err %v; committee at epoch %d root %s",
			fresh.Epoch, fresh.StateRoot(), sn.images.Value(), sn.Err(), canonical.Epoch, canonical.StateRoot())
	}

	fbs := produceFinalBlocks(t, canonical, next, 1, 6)
	payload, err := wire.EncodeFinalBlock(fbs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !sn.frame(fx, now, "ds", wire.MsgFinalBlock, payload) || sn.Err() != nil {
		t.Fatalf("the block after the image: %v", sn.Err())
	}
	if fresh.StateRoot() != canonical.StateRoot() || fresh.Epoch != canonical.Epoch {
		t.Fatalf("replica after the next block: epoch %d root %s; committee at epoch %d root %s",
			fresh.Epoch, fresh.StateRoot(), canonical.Epoch, canonical.StateRoot())
	}
	if len(fx.sends) != 0 {
		t.Errorf("the replica sent %d frames while rejoining, want none", len(fx.sends))
	}
}
