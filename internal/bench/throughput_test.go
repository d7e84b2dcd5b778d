package bench

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/dispatch"
	"cosplit/internal/fault"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/workload"
)

// provisionFT builds a small FT transfer environment with any extra
// options.
func provisionFT(t *testing.T, sharded bool, extra ...shard.Option) (*workload.Workload, *workload.Env) {
	t.Helper()
	w, err := workload.ByName("FT transfer")
	if err != nil {
		t.Fatal(err)
	}
	w.Users = 60
	opts := append([]shard.Option{
		shard.WithShards(3),
		shard.WithGasLimits(40_000, 40_000),
	}, extra...)
	env, err := workload.Provision(w, sharded, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w, env
}

// receiptLines renders what a receipt says, one line per receipt in
// block order.
func receiptLines(stats *shard.EpochStats) []string {
	out := make([]string, len(stats.Receipts))
	for i, r := range stats.Receipts {
		out[i] = fmt.Sprintf("tx=%d ok=%v gas=%d err=%q shard=%d epoch=%d events=%d",
			r.TxID, r.Success, r.GasUsed, r.Error, r.Shard, r.Epoch, len(r.Events))
	}
	return out
}

// TestHarnessEpochMatchesRunEpoch: with no plan, or an empty one, the
// harness's own drive of the three stage calls is RunEpoch: the same
// EpochStats bar the host-measured timings, receipts and state root,
// epoch after epoch, on the sharded and the baseline deployment.
func TestHarnessEpochMatchesRunEpoch(t *testing.T) {
	plans := map[string]*fault.Plan{
		"nil":       nil,
		"new":       fault.New(),
		"zero-spec": fault.Generate(99, fault.Spec{}),
	}
	for name, plan := range plans {
		for _, sharded := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sharded=%v", name, sharded), func(t *testing.T) {
				w, ref := provisionFT(t, sharded)
				_, env := provisionFT(t, sharded)
				for e := 0; e < 3; e++ {
					ref.TopUp(w, 400)
					env.TopUp(w, 400)
					want, err := ref.Net.RunEpoch()
					if err != nil {
						t.Fatal(err)
					}
					ep, err := runEpoch(env.Net, plan, 5)
					if err != nil {
						t.Fatal(err)
					}
					got := ep.stats
					if !reflect.DeepEqual(receiptLines(got), receiptLines(want)) {
						t.Fatalf("epoch %d: receipts differ from RunEpoch's", e)
					}
					g, r := *got, *want
					for _, s := range []*shard.EpochStats{&g, &r} {
						s.Dispatch, s.ExecMax, s.ExecSum, s.Merge, s.DSExec, s.Measured = 0, 0, 0, 0, 0, 0
						s.Receipts = nil
					}
					if !reflect.DeepEqual(g, r) {
						t.Fatalf("epoch %d: stats %+v, RunEpoch %+v", e, g, r)
					}
					if got, want := env.Net.StateRoot(), ref.Net.StateRoot(); got != want {
						t.Fatalf("epoch %d: root %s, RunEpoch %s", e, got, want)
					}
				}
			})
		}
	}
}

// stageEvents records what each shard's run reported: its queue, its
// measured execution time and its sealed receipt count, keyed by shard
// (dispatch.DS for the committee's run), plus the shards the pipeline
// lost.
type stageEvents struct {
	obs.Nop
	queued   map[int]int
	exec     map[int]time.Duration
	receipts map[int]int
	lost     map[int]int
}

func newStageEvents() *stageEvents {
	return &stageEvents{queued: map[int]int{}, exec: map[int]time.Duration{}, receipts: map[int]int{}, lost: map[int]int{}}
}

func (e *stageEvents) ShardExecStart(epoch uint64, s, txs int) { e.queued[s] = txs }

func (e *stageEvents) ShardExecEnd(epoch uint64, s int, took time.Duration) { e.exec[s] = took }

func (e *stageEvents) MicroBlockSealed(epoch uint64, s, receipts, deltas, deferred int, gas uint64) {
	e.receipts[s] = receipts
}

func (e *stageEvents) ShardFault(epoch uint64, s, lost int) { e.lost[s] = lost }

// TestModelledWallTerms: on a hand-set plan that crashes shard 0 and
// straggles shard 1 by 4, the modelled wall time is, term by term,
// Dispatch + ExecMax' + Merge + DSExec + shardRound(largest arrived
// block) + dsRound(arrived shard receipts + DS queue) + one view
// change. The crashed shard is never executed; the straggler's block
// still arrives.
func TestModelledWallTerms(t *testing.T) {
	ev := newStageEvents()
	w, env := provisionFT(t, true, shard.WithRecorder(ev))
	epoch := env.Net.Epoch
	plan := fault.New().
		Set(epoch, 0, fault.Directive{Kind: fault.CrashMidEpoch}).
		Set(epoch, 1, fault.Directive{Kind: fault.Straggle, Factor: 4})
	env.TopUp(w, 400)
	clear(ev.queued)
	clear(ev.exec)
	clear(ev.receipts)
	ep, err := runEpoch(env.Net, plan, 5)
	if err != nil {
		t.Fatal(err)
	}

	if _, ran := ev.queued[0]; ran {
		t.Error("the crashed shard 0 was executed")
	}
	if ep.stats.LostBlocks != 1 || ev.lost[0] == 0 || ep.stats.Lost != ev.lost[0] {
		t.Errorf("LostBlocks %d, Lost %d, shard 0 lost %d: want one lost block carrying its batch",
			ep.stats.LostBlocks, ep.stats.Lost, ev.lost[0])
	}
	if ev.receipts[1] == 0 || ev.receipts[2] == 0 {
		t.Fatalf("shards 1 and 2 sealed %d and %d receipts; the test needs traffic on both", ev.receipts[1], ev.receipts[2])
	}

	execMax := max(4*ev.exec[1], ev.exec[2]) // the straggler's time, scaled
	shardRound := defaultModel(5).roundTime(max(ev.receipts[1], ev.receipts[2]))
	dsRound := defaultModel(10).roundTime(ev.receipts[1] + ev.receipts[2] + ev.queued[dispatch.DS])
	viewChange := defaultModel(5).viewChangeTime()
	if want := shardRound + dsRound + viewChange; ep.consensus != want {
		t.Errorf("consensus = %v, want shard round %v + DS round %v + view change %v = %v",
			ep.consensus, shardRound, dsRound, viewChange, want)
	}
	sum := ep.stats
	if want := sum.Dispatch + execMax + sum.Merge + sum.DSExec + ep.consensus; ep.wall != want {
		t.Errorf("wall = %v, want dispatch %v + exec %v + merge %v + DS %v + consensus %v = %v",
			ep.wall, sum.Dispatch, execMax, sum.Merge, sum.DSExec, ep.consensus, want)
	}
}

// TestModelledWallDroppedBlock: a dropped block's shard runs, and its
// execution time counts toward ExecMax', but its receipts reach neither
// consensus round. Shard 2 carries most of the traffic and drops its
// block, shard 1 crashes and shard 0 arrives: two blocks are lost and
// the view change is charged once for the epoch.
func TestModelledWallDroppedBlock(t *testing.T) {
	ev := newStageEvents()
	_, env := provisionFT(t, true, shard.WithRecorder(ev))
	epoch := env.Net.Epoch
	plan := fault.New().
		Set(epoch, 1, fault.Directive{Kind: fault.CrashMidEpoch}).
		Set(epoch, 2, fault.Directive{Kind: fault.DropMicroBlock})

	// Transfers from senders homed on each shard: a few on shard 0, some
	// on shard 1 and most on shard 2, so the dropped shard is the
	// slowest by far.
	perShard := map[int]int{0: 6, 1: 12, 2: 150}
	dropped := map[uint64]bool{}
	for s, n := range perShard {
		var senders []chain.Address
		for _, u := range env.Users {
			if chain.ShardOf(u, 3) == s {
				senders = append(senders, u)
			}
		}
		if len(senders) == 0 {
			t.Fatalf("no user homed on shard %d", s)
		}
		for i := 0; i < n; i++ {
			from := senders[i%len(senders)]
			to := env.Users[(i+1)%len(env.Users)]
			if to == from {
				to = env.Owner
			}
			id := env.Net.Submit(&chain.Tx{
				Kind: chain.TxCall, From: from, To: env.Contract, Nonce: env.NextNonce(from),
				Amount: new(big.Int), GasLimit: 100_000, GasPrice: 1, Transition: "Transfer",
				Args: map[string]value.Value{"to": to.Value(), "amount": value.Uint128(1)},
			})
			if s == 2 {
				dropped[id] = true
			}
		}
	}
	clear(ev.queued)
	clear(ev.exec)
	clear(ev.receipts)
	ep, err := runEpoch(env.Net, plan, 5)
	if err != nil {
		t.Fatal(err)
	}

	for s, n := range perShard {
		if s != 1 && ev.queued[s] != n {
			t.Fatalf("shard %d ran %d transactions, want the %d its senders submitted", s, ev.queued[s], n)
		}
	}
	if _, ran := ev.queued[1]; ran {
		t.Error("the crashed shard 1 was executed")
	}
	if ev.receipts[2] == 0 {
		t.Fatal("the dropped shard 2 sealed no receipts; it must run its queue")
	}
	if ep.stats.LostBlocks != 2 || ep.stats.Lost != ev.lost[1]+ev.lost[2] || ev.lost[2] != perShard[2] || ev.lost[1] != perShard[1] {
		t.Errorf("LostBlocks %d, Lost %d, shard 1 lost %d, shard 2 lost %d: want 2 blocks carrying %d and %d",
			ep.stats.LostBlocks, ep.stats.Lost, ev.lost[1], ev.lost[2], perShard[1], perShard[2])
	}
	for _, r := range ep.stats.Receipts {
		if dropped[r.TxID] {
			t.Fatalf("tx %d of the dropped block has a receipt", r.TxID)
		}
	}

	shardRound := defaultModel(5).roundTime(ev.receipts[0])
	dsRound := defaultModel(10).roundTime(ev.receipts[0] + ev.queued[dispatch.DS])
	viewChange := defaultModel(5).viewChangeTime()
	if want := shardRound + dsRound + viewChange; ep.consensus != want {
		t.Errorf("consensus = %v, want shard round %v + DS round %v + one view change %v = %v",
			ep.consensus, shardRound, dsRound, viewChange, want)
	}
	if ev.exec[2] <= ev.exec[0] {
		t.Fatalf("dropped shard ran in %v, arrived shard in %v; the ExecMax' check needs the dropped shard slowest",
			ev.exec[2], ev.exec[0])
	}
	sum := ep.stats
	if want := sum.Dispatch + ev.exec[2] + sum.Merge + sum.DSExec + ep.consensus; ep.wall != want {
		t.Errorf("wall = %v, want dispatch %v + dropped shard's exec %v + merge %v + DS %v + consensus %v = %v",
			ep.wall, sum.Dispatch, ev.exec[2], sum.Merge, sum.DSExec, ep.consensus, want)
	}
}
