// Package shard implements the sharded transaction-processing pipeline
// of Fig. 10: per-epoch dispatch of the Submit queue to shards, each
// shard's sequential run of its queue producing a MicroBlock and
// StateDeltas, the DS committee's three-way merge into a FinalBlock,
// and the committee's own sequential run — one more shard run, over
// the merged state — of the transactions no shard could take.
//
// There is one execution mode: a queue runs once, in order, on the
// calling goroutine, and the package starts no goroutine of its own.
// Shards run side by side where they are separate actors or processes,
// in internal/node; RunEpoch runs them back to back.
//
// Networks are built with NewNetwork and functional options. The
// pipeline is instrumented throughout: always-on counters and
// histograms accumulate in an obs.Registry (surfaced by Snapshot),
// and an optional obs.Recorder attached via WithRecorder receives a
// structured event stream — dispatch placements, per-shard execution
// spans, sealed MicroBlocks, delta merges, requeues and epoch
// summaries. With no recorder attached the default obs.Nop keeps the
// hot path allocation-free.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/core/signature"
	"cosplit/internal/dispatch"
	"cosplit/internal/obs"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
	"cosplit/internal/trie"
)

// MicroBlock is a shard's per-epoch output (MB + SD in Fig. 10).
type MicroBlock struct {
	Shard    int
	Epoch    uint64
	Receipts []*chain.Receipt
	Deltas   []*chain.StateDelta
	Accounts *chain.AccountDelta
	GasUsed  uint64
	// Deferred are transactions that did not fit in the gas limit.
	Deferred []*chain.Tx
	ExecTime time.Duration
}

// EpochStats reports what happened in one epoch: the summary the
// recorder's EpochFinalized event carries (counts and per-stage
// timings), plus what only the caller gets.
type EpochStats struct {
	obs.EpochSummary

	// PerShard counts committed transactions per shard.
	PerShard []int

	// Loss and recovery (all zero while every MicroBlock arrives):
	// LostBlocks counts the shards whose MicroBlock never arrived, Lost
	// the transactions requeued with them, and Escalated the
	// transactions the availability mask rerouted to DS execution.
	LostBlocks int
	Lost       int
	Escalated  int

	// Receipts are the epoch's receipts in block order: dispatch
	// rejections, then each surviving shard's in shard order, then the
	// DS committee's. What this network executed is the executor's own
	// receipt, with Events and the typed Err; a shard's that arrived in
	// a decoded MicroBlock has its events as RawEvents. When the run
	// collected a FinalBlock this is the block's Receipts slice. The
	// network keeps none of them past the epoch: the lookup node is the
	// role that keeps receipts, and an in-process caller keeps what it
	// wants from here.
	Receipts []*chain.Receipt
}

// Network is the simulated sharded blockchain.
type Network struct {
	Accounts  *chain.Accounts
	Contracts *chain.Contracts
	Disp      *dispatch.Dispatcher

	Epoch       uint64
	BlockNumber uint64

	cfg Config
	rec obs.Recorder
	reg *obs.Registry
	m   netMetrics

	// faultStreak counts consecutive epochs each shard lost its
	// MicroBlock; downBuf is the availability mask handed to the
	// dispatcher while a streak is at FaultEscalation or beyond.
	faultStreak []int
	downBuf     []bool

	// queue holds submitted transactions in arrival order until the
	// next BeginEpoch dispatches them; deferred and lost batches rejoin
	// it at the tail.
	queue    []*chain.Tx
	nextTxID uint64
	mu       sync.Mutex

	// Per-epoch scratch buffers, reused across epochs so steady-state
	// epochs allocate no queue backing arrays. Safe to reuse because
	// deferred transactions are copied out of the queues (append to a
	// nil slice) before the next epoch truncates them.
	queueBuf   [][]*chain.Tx
	dsQueueBuf []*chain.Tx
	// ovPool recycles each shard's per-contract overlays across epochs
	// (indexed by shard). Reset keeps the write-table buckets, so
	// steady-state epochs stop paying map growth for the shard-level
	// overlays. Every shard run draws from it; the DS committee's run
	// does not: pooling its overlays too measured as 12 MB more live
	// heap on epoch_ipfs_ds (fresh content hashes each epoch on the
	// ProofIPFS workload) and no time saved.
	ovPool []map[chain.Address]*chain.Overlay

	// roots is the incrementally maintained authenticated state root:
	// every canonical-state mutation (account create/apply, contract
	// deploy, delta merge, DS execution) re-commits exactly the touched
	// components, so StateRoot never re-renders the full state.
	roots *trie.StateRoots
	// undo is the log of the block in progress and committed the
	// phases of it that have committed, both empty between blocks (see
	// atomically); kept here so steady-state blocks reuse their backing
	// arrays.
	undo      chain.Undo
	committed []phase
	// store is the durability backend (AttachStateStore;
	// nil keeps the network memory-only). When attached, every epoch
	// collects a FinalBlock and hands it to the store after commit.
	store StateStore
}

// NewNetwork builds a network. With no options it reproduces the
// paper's experimental setup on a single shard (see Option); compose
// WithShards, WithGasLimits, WithRecorder, ... to deviate
// from it.
func NewNetwork(opts ...Option) *Network {
	s := settings{cfg: DefaultConfig(1)}
	for _, opt := range opts {
		opt(&s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	accounts := chain.NewAccounts()
	contracts := chain.NewContracts()
	d := dispatch.New(s.cfg.NumShards, accounts, contracts,
		dispatch.WithMetrics(s.reg))
	ovPool := make([]map[chain.Address]*chain.Overlay, s.cfg.NumShards)
	for i := range ovPool {
		ovPool[i] = make(map[chain.Address]*chain.Overlay)
	}
	return &Network{
		Accounts:    accounts,
		Contracts:   contracts,
		Disp:        d,
		faultStreak: make([]int, s.cfg.NumShards),
		downBuf:     make([]bool, s.cfg.NumShards),
		cfg:         s.cfg,
		rec:         obs.Multi(s.recs...),
		reg:         s.reg,
		m:           newNetMetrics(s.reg),
		ovPool:      ovPool,
		nextTxID:    1,
		Epoch:       1,
		roots:       &trie.StateRoots{},
	}
}

// Config returns the network's resolved configuration.
func (n *Network) Config() Config { return n.cfg }

// Snapshot returns an immutable view of the network's always-on
// metrics (counters, gauges, histograms), including the dispatcher's.
func (n *Network) Snapshot() obs.Snapshot { return n.reg.Snapshot() }

// CreateUser registers a user account with an initial balance.
func (n *Network) CreateUser(addr chain.Address, balance uint64) {
	n.Accounts.Create(addr, balance, false)
	n.touchAccount(addr)
}

// DeployContract deploys a contract immediately (deployments are
// DS-committee work; the simulator applies them synchronously).
func (n *Network) DeployContract(deployer chain.Address, source string,
	params map[string]value.Value, query *signature.Query) (chain.Address, error) {
	acc, ok := n.Accounts.Get(deployer)
	if !ok {
		return chain.Address{}, fmt.Errorf("%w %s", ErrUnknownDeployer, deployer)
	}
	addr := chain.ContractAddress(deployer, acc.Nonce+1)
	dep := &chain.Deployment{Source: source, Params: params, Query: query}
	c, err := chain.Deploy(addr, source, params, dep)
	if err != nil {
		return chain.Address{}, err
	}
	n.Accounts.Create(addr, 0, true)
	n.Contracts.Add(c)
	n.touchAccount(addr)
	n.roots.PutContractState(addr, c.Snapshot())
	if c.Compiled != nil {
		compiled, fallbacks, _ := c.Compiled.CompileCounts()
		n.m.compilePrograms.Inc()
		n.m.compileTransitions.Add(int64(compiled))
		n.m.compileFallbacks.Add(int64(fallbacks))
		for i := range c.Checked.Module.Contract.Transitions {
			trName := c.Checked.Module.Contract.Transitions[i].Name
			ok, fast := c.Compiled.CompiledTransition(trName)
			n.rec.TransitionCompiled(n.Epoch, c.Checked.Module.Contract.Name, trName, ok, fast)
		}
	}
	// Bump the deployer's nonce.
	d := chain.NewAccountDelta()
	d.BumpNonce(deployer, acc.Nonce+1)
	if err := n.Accounts.Apply(d, nil); err != nil {
		return chain.Address{}, err
	}
	n.touchAccount(deployer)
	return addr, nil
}

// Submit appends a transaction to the queue the next BeginEpoch
// dispatches, in arrival order, and returns the id it assigns. Nothing
// is refused here: the relaxed-nonce rule (Sec. 4.2.1) and unknown
// senders are judged at dispatch, which writes a rejection receipt.
func (n *Network) Submit(tx *chain.Tx) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	tx.ID = n.nextTxID
	n.nextTxID++
	n.queue = append(n.queue, tx)
	n.m.mempool.Set(int64(len(n.queue)))
	return tx.ID
}

// SubmitTx is Submit with a nil error; it keeps this signature only
// because the benchmark's replay harness calls it.
func (n *Network) SubmitTx(tx *chain.Tx) (uint64, error) {
	return n.Submit(tx), nil
}

// MempoolSize returns the number of transactions waiting in the Submit
// queue.
func (n *Network) MempoolSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// epochQueues returns the per-shard and DS queue buffers, truncated
// for a fresh epoch but keeping their backing arrays.
func (n *Network) epochQueues() ([][]*chain.Tx, []*chain.Tx) {
	if len(n.queueBuf) != n.cfg.NumShards {
		n.queueBuf = make([][]*chain.Tx, n.cfg.NumShards)
	}
	for s := range n.queueBuf {
		n.queueBuf[s] = n.queueBuf[s][:0]
	}
	return n.queueBuf, n.dsQueueBuf[:0]
}

// EpochRun carries one epoch's in-flight pipeline state between the
// public stages BeginEpoch, ExecuteShard and FinalizeEpoch. The
// monolithic RunEpoch drives all three in-process; the node runtime
// (internal/node) runs BeginEpoch and FinalizeEpoch on the DS
// committee's replica and ships the queues to shard nodes as encoded
// frames, collecting their MicroBlocks the same way.
//
// The queues exposed by Queues and DSQueue alias per-network scratch
// buffers: they are valid until the network's next BeginEpoch.
type EpochRun struct {
	net        *Network
	stats      *EpochStats
	queues     [][]*chain.Tx
	dsQueue    []*chain.Tx
	anyDown    bool
	epochStart time.Time
	collectFB  bool
}

// Epoch returns the epoch this run processes.
func (r *EpochRun) Epoch() uint64 { return r.stats.Epoch }

// Queues returns the dispatched per-shard queues (valid until the next
// BeginEpoch).
func (r *EpochRun) Queues() [][]*chain.Tx { return r.queues }

// DSQueue returns the transactions dispatched to the DS committee
// (valid until the next BeginEpoch).
func (r *EpochRun) DSQueue() []*chain.Tx { return r.dsQueue }

// CollectFinalBlock makes FinalizeEpoch assemble and return a
// FinalBlock for this run. Off by default: the monolithic pipeline
// commits state in place and has no use for the (state-root hashing)
// block, so RunEpoch stays as fast as before the node runtime existed.
func (r *EpochRun) CollectFinalBlock() { r.collectFB = true }

// FinalBlock is the DS committee's per-epoch commitment, broadcast to
// every node so replicas converge. It carries the epoch's two commit
// phases — the raw shard StateDeltas that survived the merge (in shard
// order) with the merged account delta, then the output of the
// committee's own run over the merged state — plus every receipt of
// the epoch and the resulting state root. The committee ships what its
// run changed rather than the batch it ran, so a replica applies a
// block without executing a transition and verifies the root.
type FinalBlock struct {
	Epoch    uint64
	Deltas   []*chain.StateDelta
	Accounts *chain.AccountDelta
	// DSDeltas and DSAccounts are the second phase, relative to the
	// state the first phase leaves.
	DSDeltas   []*chain.StateDelta
	DSAccounts *chain.AccountDelta
	Receipts   []*chain.Receipt
	// StateRoot is Network.StateRoot after the epoch fully committed;
	// replicas reject a block whose replayed root disagrees.
	StateRoot string

	// seal is the block's wire encoding, once it has one (Seal).
	seal *blockSeal
}

// blockSeal is a block's wire encoding together with the field values
// it encodes.
type blockSeal struct {
	payload []byte
	of      FinalBlock
}

// Seal records payload as the block's wire encoding: the bytes it was
// decoded from, or the one encoding made of it (wire.SealedFinalBlock
// does both). A sealed block's bytes are made once — the committee
// journals, broadcasts and keeps for catch-up the same payload, and a
// replica journals the payload it received. The seal holds for the
// fields as they are now; what they point to (a delta's entries, a
// receipt) is read-only from here on.
func (fb *FinalBlock) Seal(payload []byte) {
	of := *fb
	of.seal = nil
	fb.seal = &blockSeal{payload: payload, of: of}
}

// Sealed returns the payload the block was sealed with, or nil when it
// has none or a field has been reassigned since (a copy given another
// epoch, a replaced root, a longer receipt list): such a block no
// longer is what the bytes say, and whoever needs its bytes encodes it
// again.
func (fb *FinalBlock) Sealed() []byte {
	s := fb.seal
	if s == nil || fb.Epoch != s.of.Epoch || fb.StateRoot != s.of.StateRoot ||
		fb.Accounts != s.of.Accounts || fb.DSAccounts != s.of.DSAccounts ||
		!sameSlice(fb.Deltas, s.of.Deltas) || !sameSlice(fb.DSDeltas, s.of.DSDeltas) ||
		!sameSlice(fb.Receipts, s.of.Receipts) {
		return nil
	}
	return s.payload
}

// sameSlice reports whether a and b are the same elements of the same
// array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// BeginEpoch starts an epoch: it drains the Submit queue, dispatches
// the packet (Sec. 4.3) in arrival order and returns the run with the
// per-shard and DS queues routed. Callers execute the queues — ExecuteShard in-process,
// or remote shard nodes in the node runtime — and hand the MicroBlocks
// to FinalizeEpoch.
func (n *Network) BeginEpoch() *EpochRun {
	n.mu.Lock()
	pending := n.queue
	n.queue = nil
	n.m.mempool.Set(0)
	n.mu.Unlock()

	run := &EpochRun{
		net:        n,
		epochStart: time.Now(),
		stats:      &EpochStats{EpochSummary: obs.EpochSummary{Epoch: n.Epoch}, PerShard: make([]int, n.cfg.NumShards)},
		// A durable network journals every epoch's FinalBlock, so the
		// block is always assembled when a store is attached.
		collectFB: n.store != nil,
	}
	stats := run.stats
	n.Disp.ResetEpoch()
	run.anyDown = n.applyAvailability()

	// Phase 1: lookup nodes dispatch the packet (Sec. 4.3), in
	// submission order: load-balanced placement follows it.
	t0 := time.Now()
	queues, dsQueue := n.epochQueues()
	for _, tx := range pending {
		dec := n.Disp.Dispatch(tx)
		if dec.Rejected {
			stats.Rejected++
			n.rec.TxDispatched(n.Epoch, tx.ID, rejectedShard, dec.Reason)
			stats.Receipts = append(stats.Receipts, &chain.Receipt{TxID: tx.ID, Success: false, Error: dec.Reason, Shard: rejectedShard, Epoch: n.Epoch})
			continue
		}
		n.rec.TxDispatched(n.Epoch, tx.ID, dec.Shard, dec.Reason)
		if run.anyDown && dec.Reason == dispatch.ReasonShardUnavailable {
			stats.Escalated++
		}
		if dec.Shard == dispatch.DS {
			dsQueue = append(dsQueue, tx)
		} else {
			queues[dec.Shard] = append(queues[dec.Shard], tx)
		}
	}
	n.dsQueueBuf = dsQueue
	run.queues = queues
	run.dsQueue = dsQueue
	stats.Dispatch = time.Since(t0)
	if run.anyDown {
		n.m.escalatedTxs.Add(int64(stats.Escalated))
		for s, down := range n.downBuf {
			if down {
				n.m.escalations.Inc()
				n.rec.ShardEscalated(n.Epoch, s, n.Disp.Rerouted(s))
			}
		}
	}
	return run
}

// RunEpoch processes the Submit queue through one full epoch and
// returns its statistics, the epoch's receipts among them: the network
// keeps none, so a caller that wants one later keeps it from
// EpochStats.Receipts. It is the monolithic composition of the stage
// API: BeginEpoch, ExecuteShard over every queue one after another,
// FinalizeEpoch.
func (n *Network) RunEpoch() (*EpochStats, error) {
	run := n.BeginEpoch()
	blocks := make([]*MicroBlock, n.cfg.NumShards)
	for s := range blocks {
		mb, err := n.ExecuteShard(s, run.queues[s])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		blocks[s] = mb
	}
	stats, _, err := n.FinalizeEpoch(run, blocks)
	return stats, err
}

// FinalizeEpoch completes an epoch begun with BeginEpoch: the DS
// committee commits the surviving MicroBlocks (three-way merge), runs
// the unsharded queue over the result and commits that run's output
// the same way, then closes the epoch counters. blocks is indexed by
// shard; a nil entry means the shard's MicroBlock never arrived (in the
// node runtime: its frame was dropped, corrupted, or timed out at the
// transport layer). That is the pipeline's one kind of loss: nothing
// from the shard commits, its whole batch is requeued, and its
// unavailability streak advances toward escalation.
//
// The returned FinalBlock is nil unless run.CollectFinalBlock was
// called.
func (n *Network) FinalizeEpoch(run *EpochRun, blocks []*MicroBlock) (*EpochStats, *FinalBlock, error) {
	stats := run.stats
	queues, dsQueue := run.queues, run.dsQueue

	var fb *FinalBlock
	if run.collectFB {
		fb = &FinalBlock{Epoch: stats.Epoch}
	}

	var allDeltas []*chain.StateDelta
	accDelta := chain.NewAccountDelta()
	for s, mb := range blocks {
		if mb == nil {
			lost := len(queues[s])
			n.m.faultLostBlocks.Inc()
			n.m.faultLostTxs.Add(int64(lost))
			n.rec.ShardFault(n.Epoch, s, lost)
			stats.LostBlocks++
			stats.Lost += lost
			n.faultStreak[s]++
			n.requeue(s, queues[s])
			continue
		}
		n.faultStreak[s] = 0
		stats.ExecMax = max(stats.ExecMax, mb.ExecTime)
		stats.ExecSum += mb.ExecTime
		for _, r := range mb.Receipts {
			if r.Success {
				stats.Committed++
				stats.PerShard[s]++
			} else {
				stats.Failed++
			}
		}
		stats.Receipts = append(stats.Receipts, mb.Receipts...)
		allDeltas = append(allDeltas, mb.Deltas...)
		accDelta.Merge(mb.Accounts)
		stats.Deferred += len(mb.Deferred)
		n.requeue(s, mb.Deferred)
	}

	// Phase 3: the DS committee merges all StateDeltas (three-way
	// merge, Sec. 4.3) and applies the account delta. Deltas were
	// collected in shard order and contracts are visited in address
	// order, so the merge is byte-for-byte deterministic regardless of
	// how phase 2 was scheduled. It and phase 4 commit as one block:
	// if either fails, neither is left behind.
	var ds *MicroBlock
	err := n.atomically(func() error {
		t1 := time.Now()
		for _, d := range allDeltas {
			stats.DeltaEntries += d.Size()
		}
		merged, err := n.commit(allDeltas, accDelta)
		if err != nil {
			return err
		}
		stats.Merge = time.Since(t1)
		n.m.mergeContracts.Add(int64(merged))
		n.m.deltaEntries.Observe(int64(stats.DeltaEntries))
		n.m.mergeTime.ObserveDuration(stats.Merge)
		n.rec.DeltaMerged(n.Epoch, merged, len(allDeltas), stats.DeltaEntries, 0, stats.Merge)

		// Phase 4: the DS committee runs the remaining potentially
		// conflicting transactions sequentially over the merged state —
		// a shard run like any other, with message chains between
		// contracts allowed — and commits its output as the block's
		// second phase.
		t2 := time.Now()
		n.rec.ShardExecStart(n.Epoch, dispatch.DS, len(dsQueue))
		if ds, err = n.runQueue(dispatch.DS, dsQueue); err == nil {
			_, err = n.commit(ds.Deltas, ds.Accounts)
		}
		if err != nil {
			return fmt.Errorf("DS run: %w", err)
		}
		stats.DSExec = time.Since(t2)
		n.rec.ShardExecEnd(n.Epoch, dispatch.DS, stats.DSExec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("epoch %d: %w", n.Epoch, err)
	}
	stats.Receipts = append(stats.Receipts, ds.Receipts...)
	for _, r := range ds.Receipts {
		if r.Success {
			stats.DSCommitted++
		} else {
			stats.Failed++
		}
	}
	stats.Committed += stats.DSCommitted
	stats.Deferred += len(ds.Deferred)
	n.requeue(dispatch.DS, ds.Deferred)

	stats.Measured = time.Since(run.epochStart)
	n.finishEpochMetrics(stats.EpochSummary)
	n.rec.EpochFinalized(stats.EpochSummary)

	if fb != nil {
		fb.Deltas, fb.Accounts = allDeltas, accDelta
		fb.DSDeltas, fb.DSAccounts = ds.Deltas, ds.Accounts
		fb.Receipts = stats.Receipts
		t3 := time.Now()
		fb.StateRoot = n.StateRoot()
		n.m.rootTime.ObserveDuration(time.Since(t3))
		n.m.rootLeaves.Set(int64(n.roots.Len()))
		n.m.rootBytes.Set(int64(n.roots.Bytes()))
	}

	n.Epoch++
	n.BlockNumber++
	if n.store != nil {
		if err := n.store.EpochCommitted(n, fb, n.Checkpoint()); err != nil {
			return nil, nil, fmt.Errorf("state store epoch %d: %w", fb.Epoch, err)
		}
	}
	return stats, fb, nil
}

// ApplyFinalBlock applies a DS-committed epoch on a replica: the
// block's two commit phases through the same commit the committee
// used. Nothing is executed, and the block's receipts are not kept:
// they are the lookup's to serve. The replica's resulting state root
// must match the block's; a mismatch (a corrupted frame that survived
// decoding, or replica divergence) fails with ErrStateDivergence. A
// block that fails, for that or any other reason, is undone whole:
// state, accounts, StateRoot and Epoch are as they were before the
// call, so the same epoch can be applied again from a good copy.
//
// The replica must be at the block's epoch: it is built from the same
// deterministic genesis as the DS committee's network and advances
// only through this method.
func (n *Network) ApplyFinalBlock(fb *FinalBlock) error {
	if err := n.replayFinalBlock(fb); err != nil {
		return err
	}
	if n.store != nil {
		if err := n.store.EpochCommitted(n, fb, n.Checkpoint()); err != nil {
			return fmt.Errorf("state store epoch %d: %w", fb.Epoch, err)
		}
	}
	return nil
}

// replayFinalBlock is the store-agnostic core of ApplyFinalBlock,
// shared with journal replay during recovery (which must not
// re-journal the block it is reading).
func (n *Network) replayFinalBlock(fb *FinalBlock) error {
	if fb.Epoch != n.Epoch {
		return fmt.Errorf("apply final block: %w: block epoch %d, replica epoch %d", ErrEpochSkew, fb.Epoch, n.Epoch)
	}
	err := n.atomically(func() error {
		if _, err := n.commit(fb.Deltas, fb.Accounts); err != nil {
			return err
		}
		if _, err := n.commit(fb.DSDeltas, fb.DSAccounts); err != nil {
			return fmt.Errorf("DS phase: %w", err)
		}
		if fb.StateRoot != "" {
			if root := n.StateRoot(); root != fb.StateRoot {
				return fmt.Errorf("%w: replica root %s, block root %s", ErrStateDivergence, root, fb.StateRoot)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("apply final block epoch %d: %w", fb.Epoch, err)
	}
	n.Epoch++
	n.BlockNumber++
	return nil
}

// phase is one committed phase of a block: what commit folded in.
type phase struct {
	deltas   []*chain.StateDelta
	accounts *chain.AccountDelta
}

// atomically runs block — a block's commit phases and the checks
// between and after them — all or nothing. The phases log into one undo
// log; if block fails, the log is replayed and the root-trie components
// of every phase that had committed are re-touched from the restored
// state, so state, accounts and StateRoot are what they were before
// the call, at a cost that follows the block's deltas. The committee
// finalizing an epoch and a replica applying its FinalBlock both
// commit through it; neither advances Epoch until it returns nil.
func (n *Network) atomically(block func() error) error {
	err := block()
	if err != nil {
		n.undo.Rollback()
		for _, p := range n.committed {
			n.touchPhase(p)
		}
	}
	n.undo.Reset()
	clear(n.committed)
	n.committed = n.committed[:0]
	return err
}

// commit folds one phase's output — a set of per-contract state
// deltas and an account delta — into canonical state, in place:
// contracts in address order, each delta entry written into the
// contract's canonical state at its keypath by its join kind, then the
// account delta. What each written component held before goes into the
// block's undo log, which atomically replays if this or any later step
// of the block fails. Only once everything has succeeded are the
// touched root-trie components re-committed. The cost follows the
// deltas, not the size of the state.
//
// The committee calls it for the shards' output and again for its own
// run's; replicas call it for the same two phases of a FinalBlock. It is
// the only place contract state is merged. Pointers from
// Contract.Snapshot taken before the call see its writes: nothing
// executes on this network while it runs. It returns the number of
// contracts merged.
func (n *Network) commit(deltas []*chain.StateDelta, accounts *chain.AccountDelta) (int, error) {
	addrs, byContract := groupByContract(deltas)
	var err error
	for _, addr := range addrs {
		c := n.Contracts.Get(addr)
		if c == nil {
			err = fmt.Errorf("%w: contract %s", ErrUnknownContract, addr)
			break
		}
		if err = chain.MergeDeltas(c.Snapshot(), byContract[addr], &n.undo); err != nil {
			break
		}
	}
	if err == nil && accounts != nil {
		err = n.Accounts.Apply(accounts, &n.undo)
	}
	if err != nil {
		var conflict *chain.ConflictError
		var overflow *chain.OverflowError
		switch {
		case errors.As(err, &conflict):
			n.m.mergeConflicts.Inc()
		case errors.As(err, &overflow):
			n.m.mergeOverflows.Inc()
		}
		return 0, err
	}
	p := phase{deltas, accounts}
	n.committed = append(n.committed, p)
	n.touchPhase(p)
	return len(addrs), nil
}

// groupByContract buckets deltas by contract, keeping their order
// within a contract, and returns the contracts in address order.
func groupByContract(deltas []*chain.StateDelta) ([]chain.Address, map[chain.Address][]*chain.StateDelta) {
	byContract := make(map[chain.Address][]*chain.StateDelta)
	var addrs []chain.Address
	for _, d := range deltas {
		if _, seen := byContract[d.Contract]; !seen {
			addrs = append(addrs, d.Contract)
		}
		byContract[d.Contract] = append(byContract[d.Contract], d)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	return addrs, byContract
}

// rejectedShard labels receipts and trace events for transactions the
// dispatcher refused (dispatch.DS, -1, labels the DS committee).
const rejectedShard = -2

// applyAvailability refreshes the dispatcher's shard-availability mask
// from the loss streaks: a shard that lost its MicroBlock for
// FaultEscalation consecutive epochs — to its fault plan, or to a
// shard node that stopped answering — is marked down and its traffic
// reroutes to DS execution. The mask clears
// per shard as soon as the shard seals a healthy block (a down shard
// receives no transactions, so its next empty epoch is the recovery
// probe). It reports whether any shard is down this epoch; while none
// is, the dispatcher's mask is nil.
func (n *Network) applyAvailability() bool {
	any := false
	for s, streak := range n.faultStreak {
		n.downBuf[s] = streak >= FaultEscalation
		any = any || n.downBuf[s]
	}
	if any {
		n.Disp.SetUnavailable(n.downBuf)
	} else {
		n.Disp.SetUnavailable(nil)
	}
	return any
}

// finishEpochMetrics folds one epoch's summary into the always-on
// registry instruments.
func (n *Network) finishEpochMetrics(sum obs.EpochSummary) {
	n.m.epochs.Inc()
	n.m.committed.Add(int64(sum.Committed))
	n.m.failed.Add(int64(sum.Failed))
	n.m.rejected.Add(int64(sum.Rejected))
	n.m.deferred.Add(int64(sum.Deferred))
	n.m.dsCommitted.Add(int64(sum.DSCommitted))
	n.m.dispatchTime.ObserveDuration(sum.Dispatch)
	n.m.dsExecTime.ObserveDuration(sum.DSExec)
	n.m.measuredTime.ObserveDuration(sum.Measured)
	// Fold the epoch's compiled-execution dispatch counters out of each
	// contract's program (the counters there are cumulative-since-drain,
	// so per-epoch drains sum correctly in the registry).
	for _, c := range n.Contracts.All() {
		if c.Compiled == nil {
			continue
		}
		st := c.Compiled.DrainStats()
		n.m.compileFastRuns.Add(int64(st.FastRuns))
		n.m.compileGenericRuns.Add(int64(st.GenericRuns))
		n.m.compileFallbackRuns.Add(int64(st.FallbackRuns))
		n.m.compilePoolRecycles.Add(int64(st.PoolRecycles))
	}
}

// StateRoot returns the authenticated root over the full observable
// network state: every contract's canonical state and every account's
// balance and nonce. It reads the incrementally maintained trie — an
// epoch that changed k components rehashes O(k·depth) trie nodes, not
// the whole state. Two runs of the same workload must agree on it —
// on either engine, monolithic or byte-shipped over a node cluster;
// the determinism and golden-root tests assert this — and the
// root-equivalence suite checks it against RecomputeStateRoot (a
// from-scratch render) after every epoch.
func (n *Network) StateRoot() string {
	return n.roots.Root()
}

// requeue returns deferred or lost transactions from a shard (or the DS
// committee, shard == dispatch.DS) to the tail of the Submit queue,
// keeping their ids.
func (n *Network) requeue(shard int, txs []*chain.Tx) {
	if len(txs) == 0 {
		return
	}
	n.rec.TxRequeued(n.Epoch, shard, len(txs))
	n.mu.Lock()
	defer n.mu.Unlock()
	n.queue = append(n.queue, txs...)
	n.m.mempool.Set(int64(len(n.queue)))
}

// shardRun is the execution context of one queue for one epoch: a
// shard's, or — shard == dispatch.DS — the DS committee's over the
// merged canonical state. The DS run differs from a shard's in its gas
// limit, its admission rule (admit) and in being allowed to follow
// messages from contract to contract (call); everything else is one
// executor.
type shardRun struct {
	net   *Network
	shard int
	// gasLimit is the block gas cap the run seals under.
	gasLimit uint64
	overlays map[chain.Address]*chain.Overlay
	// ovCache, when non-nil, recycles the run's overlays across epochs
	// (see Network.ovPool). The DS run leaves it nil.
	ovCache  map[chain.Address]*chain.Overlay
	accDelta *chain.AccountDelta
	// localBal tracks each account's balance view inside the run (base
	// balance + local deltas) for overdraft checks.
	localBal map[chain.Address]*big.Int
	// gasSpent tracks per-sender gas spending for split gas accounting.
	gasSpent map[chain.Address]*big.Int
	// evalCtx is reused across the run's transition calls so the
	// interpreter's per-call environment and key scratch persist.
	evalCtx eval.Context
	// txOvs holds the running transaction's rollback overlays, one per
	// contract it has called (the first txLive entries; the rest are
	// pooled from earlier transactions and Reset on reuse). All are
	// committed into the run's overlays together or dropped together. A
	// shard transaction calls exactly one contract; pooling is safe
	// because a shardRun executes its queue on a single goroutine.
	txOvs  []txOverlay
	txLive int
	// moves queues the native-token movements the running call asks for
	// — the accepted amount, then each message in order — until its gas
	// is settled; applyMoves then makes all of them or none.
	moves []tokenMove
	// Scratch big.Ints for per-transaction gas arithmetic. Safe to
	// reuse because every consumer (balance views, account deltas,
	// allowance comparisons) copies or folds the value immediately.
	scrCost, scrPrice, scrNeg, scrSum, scrBudget, scrTotal, scrBlk, scrCB, scrAllow big.Int
}

// txOverlay is one contract's per-transaction overlay, stacked on the
// run's overlay for that contract.
type txOverlay struct {
	c       *chain.Contract
	shardOv *chain.Overlay
	ov      *chain.Overlay
}

// tokenMove is one native-token movement a call asked for.
type tokenMove struct {
	from, to chain.Address
	amount   *big.Int
}

func (n *Network) newShardRun(s int) *shardRun {
	limit := n.cfg.ShardGasLimit
	if s == dispatch.DS {
		limit = n.cfg.DSGasLimit
	}
	return &shardRun{
		net:      n,
		shard:    s,
		gasLimit: limit,
		overlays: make(map[chain.Address]*chain.Overlay),
		accDelta: chain.NewAccountDelta(),
		localBal: make(map[chain.Address]*big.Int),
		gasSpent: make(map[chain.Address]*big.Int),
	}
}

func (r *shardRun) overlayFor(c *chain.Contract) *chain.Overlay {
	ov, ok := r.overlays[c.Addr]
	if !ok {
		if ov, ok = r.ovCache[c.Addr]; ok {
			// Recycled from a previous epoch: rewind onto the current
			// canonical snapshot, keeping the write-table buckets.
			ov.Reset(c.Snapshot(), c.Checked.FieldTypes)
		} else {
			ov = chain.NewOverlay(c.Snapshot(), c.Checked.FieldTypes)
			if r.ovCache != nil {
				r.ovCache[c.Addr] = ov
			}
		}
		r.overlays[c.Addr] = ov
	}
	return ov
}

// txOverlayFor returns the running transaction's overlay for c, taking
// a pooled one on the transaction's first call into c.
func (r *shardRun) txOverlayFor(c *chain.Contract) *chain.Overlay {
	for i := range r.txOvs[:r.txLive] {
		if r.txOvs[i].c == c {
			return r.txOvs[i].ov
		}
	}
	shardOv := r.overlayFor(c)
	if r.txLive == len(r.txOvs) {
		r.txOvs = append(r.txOvs, txOverlay{ov: chain.NewOverlay(shardOv, c.Checked.FieldTypes)})
	} else {
		r.txOvs[r.txLive].ov.Reset(shardOv, c.Checked.FieldTypes)
	}
	t := &r.txOvs[r.txLive]
	t.c, t.shardOv = c, shardOv
	r.txLive++
	return t.ov
}

// balanceView returns the run-local view of an account balance.
func (r *shardRun) balanceView(a chain.Address) *big.Int {
	if b, ok := r.localBal[a]; ok {
		return b
	}
	acc, _ := r.net.Accounts.Get(a)
	b := acc.Balance.Big(new(big.Int))
	r.localBal[a] = b
	return b
}

func (r *shardRun) credit(a chain.Address, v *big.Int) {
	b := r.balanceView(a)
	b.Add(b, v)
	r.accDelta.AddBalance(a, v)
}

func (r *shardRun) debit(a chain.Address, v *big.Int) {
	neg := r.scrNeg.Neg(v)
	r.credit(a, neg)
}

// applyMoves makes the queued token movements in order, each covered by
// the payer's balance at that point, or none of them: the balance views
// move first and are taken back when a later movement is not covered,
// so a failed call leaves no trace in the run's account delta.
func (r *shardRun) applyMoves() error {
	for i, mv := range r.moves {
		from := r.balanceView(mv.from)
		if from.Cmp(mv.amount) < 0 {
			for _, done := range r.moves[:i] {
				r.localBal[done.from].Add(r.localBal[done.from], done.amount)
				r.localBal[done.to].Sub(r.localBal[done.to], done.amount)
			}
			return fmt.Errorf("%w: %s cannot pay %s", ErrInsufficientBalance, mv.from, mv.amount)
		}
		from.Sub(from, mv.amount)
		to := r.balanceView(mv.to)
		to.Add(to, mv.amount)
	}
	for _, mv := range r.moves {
		r.accDelta.AddBalance(mv.from, r.scrNeg.Neg(mv.amount))
		r.accDelta.AddBalance(mv.to, mv.amount)
	}
	return nil
}

// gasAllowance returns how much native token the sender may spend on
// gas within this shard (Sec. 4.2.2).
func (r *shardRun) gasAllowance(sender chain.Address) *big.Int {
	acc, _ := r.net.Accounts.Get(sender)
	bal := acc.Balance.Big(&r.scrAllow)
	if !r.net.cfg.SplitGasAccounting || r.net.cfg.NumShards <= 1 {
		return bal
	}
	// Half the balance to the sender's home shard, the rest split
	// across the other shards.
	half := bal.Rsh(bal, 1)
	if chain.ShardOf(sender, r.net.cfg.NumShards) == r.shard {
		return half
	}
	return half.Div(half, r.scrPrice.SetInt64(int64(r.net.cfg.NumShards-1)))
}

// admit is the run's gas admission rule. A shard may spend only its
// allowance of the sender's epoch-start balance on gas, summed over the
// run (Sec. 4.2.2). The DS committee runs after every shard's effects
// are merged and sees the sender's whole balance, so there the current
// balance must cover this transaction's budget.
func (r *shardRun) admit(sender chain.Address, spent, budget *big.Int) error {
	if r.shard == dispatch.DS {
		if r.balanceView(sender).Cmp(budget) < 0 {
			return fmt.Errorf("%w for gas", ErrInsufficientBalance)
		}
		return nil
	}
	if r.scrSum.Add(spent, budget).Cmp(r.gasAllowance(sender)) > 0 {
		return ErrGasExhausted
	}
	return nil
}

// ExecuteShard executes one shard's transaction queue within the shard
// gas limit and produces its MicroBlock. It is the phase-2 stage of
// the epoch pipeline: RunEpoch calls it for every shard in-process,
// while the node runtime runs it on each shard node's own replica
// against a queue received over the wire.
func (n *Network) ExecuteShard(s int, queue []*chain.Tx) (*MicroBlock, error) {
	n.rec.ShardExecStart(n.Epoch, s, len(queue))
	n.m.queueDepth.Observe(int64(len(queue)))
	mb, err := n.runQueue(s, queue)
	if err != nil {
		return nil, err
	}
	n.m.shardExecTime.ObserveDuration(mb.ExecTime)
	n.m.shardGas.Observe(int64(mb.GasUsed))
	n.rec.ShardExecEnd(n.Epoch, s, mb.ExecTime)
	n.rec.MicroBlockSealed(n.Epoch, s, len(mb.Receipts), len(mb.Deltas), len(mb.Deferred), mb.GasUsed)
	return mb, nil
}

// runQueue executes a queue sequentially on one run and seals its
// output: shard s's MicroBlock, or for s == dispatch.DS the DS
// committee's second commit phase in the same shape.
func (n *Network) runQueue(s int, queue []*chain.Tx) (*MicroBlock, error) {
	run := n.newShardRun(s)
	if s != dispatch.DS {
		run.ovCache = n.ovPool[s]
	}
	mb := &MicroBlock{Shard: s, Epoch: n.Epoch, Accounts: run.accDelta}
	start := time.Now()
	for i, tx := range queue {
		// The block never commits past its gas limit: each transaction
		// runs under the remaining epoch gas, and one that cannot fit in
		// what is left is deferred to the next epoch (with the rest of the
		// queue, preserving order) rather than allowed to blow past the
		// cap.
		remaining := run.gasLimit - mb.GasUsed
		if remaining == 0 {
			mb.Deferred = append(mb.Deferred, queue[i:]...)
			break
		}
		rec, wait := run.execute(tx, remaining)
		if wait {
			mb.Deferred = append(mb.Deferred, queue[i:]...)
			break
		}
		rec.Shard = s
		rec.Epoch = n.Epoch
		mb.Receipts = append(mb.Receipts, rec)
		mb.GasUsed += rec.GasUsed
	}

	// Extract per-contract state deltas. Extraction counts toward
	// ExecTime: the run cannot seal its block without it.
	deltas, err := run.extractDeltas()
	if err != nil {
		return nil, err
	}
	mb.Deltas = deltas
	mb.ExecTime = time.Since(start)
	return mb, nil
}

// extractDeltas extracts one StateDelta per contract the run touched.
func (r *shardRun) extractDeltas() ([]*chain.StateDelta, error) {
	var out []*chain.StateDelta
	for addr, ov := range r.overlays {
		if !ov.Touched() {
			continue
		}
		c := r.net.Contracts.Get(addr)
		joins := map[string]signature.Join{}
		if c.Sig != nil {
			joins = c.Sig.Joins
		}
		d, err := ov.ExtractDelta(addr, r.shard, joins)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	// Address order, not the overlay map's: the deltas go into blocks as
	// they are listed here, and a block's bytes are journaled, so a run
	// over several contracts must list them the same way every time.
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Contract[:], out[j].Contract[:]) < 0
	})
	return out, nil
}

// execute runs one transaction on the run, capped by the epoch's
// remaining block gas (remaining > 0: runQueue defers the rest of the
// queue once nothing is left). When the transaction cannot complete
// within the remaining budget but might within a fresh epoch's full
// limit, execute reports wait=true and leaves all run state — overlays,
// balances, nonces, gas spending — untouched so the transaction can be
// deferred and retried. A failed transaction is charged its gas and its
// nonce and changes nothing else.
func (r *shardRun) execute(tx *chain.Tx, remaining uint64) (_ *chain.Receipt, wait bool) {
	// effLimit is what the interpreter may burn: the transaction's own
	// declared limit, clipped to the epoch budget (a declared limit of 0
	// means "unlimited" to the interpreter, so it is clipped too rather
	// than passed through).
	effLimit := tx.GasLimit
	epochCapped := false
	if effLimit == 0 || effLimit > remaining {
		effLimit = remaining
		epochCapped = true
	}
	rec := &chain.Receipt{TxID: tx.ID}
	// fail finalises a failure receipt: the cause is wrapped with the
	// transaction's identity (the dispatcher's nonce-replay convention)
	// so callers can errors.Is the sentinel through requeue paths, and
	// Error carries the wrapped message.
	fail := func(cause error) (*chain.Receipt, bool) {
		rec.Err = fmt.Errorf("tx %d sender %s nonce %d: %w", tx.ID, tx.From, tx.Nonce, cause)
		rec.Error = rec.Err.Error()
		return rec, false
	}
	// gasCost computes used*price into a per-run scratch; consumers
	// (debit, spent accumulation) fold the value before the next call.
	gasCost := func(used uint64) *big.Int {
		return r.scrCost.Mul(r.scrCost.SetUint64(used), r.scrPrice.SetUint64(tx.GasPrice))
	}

	spent := r.gasSpent[tx.From]
	if spent == nil {
		spent = new(big.Int)
		r.gasSpent[tx.From] = spent
	}
	budget := r.scrBudget.Mul(r.scrBudget.SetUint64(tx.GasLimit), r.scrPrice.SetUint64(tx.GasPrice))
	if err := r.admit(tx.From, spent, budget); err != nil {
		return fail(err)
	}

	switch tx.Kind {
	case chain.TxTransfer:
		total := r.scrTotal.Add(tx.Amount, budget)
		if r.balanceView(tx.From).Cmp(total) < 0 {
			return fail(ErrInsufficientBalance)
		}
		r.debit(tx.From, tx.Amount)
		r.credit(tx.To, tx.Amount)
		rec.GasUsed = 1
		r.debit(tx.From, gasCost(rec.GasUsed))
		spent.Add(spent, gasCost(rec.GasUsed))
		r.accDelta.BumpNonce(tx.From, tx.Nonce)
		rec.Success = true
		return rec, false
	case chain.TxCall:
		r.txLive, r.moves = 0, r.moves[:0]
		events, gas, err := r.call(tx.From, tx.From, tx.To, tx.Transition, tx.Args, tx.Amount, effLimit, 0)
		if effLimit > 0 && gas > effLimit {
			// The interpreter's gas check runs after each charge, so a
			// failing run can overshoot the limit by one operation; the
			// block accounting must never see more than the effective
			// limit or the block could exceed its gas cap.
			gas = effLimit
		}
		var oog *eval.OutOfGasError
		if epochCapped && errors.As(err, &oog) && remaining < r.gasLimit {
			// The transaction ran out of the epoch's residual gas, not its
			// own declared budget: a fresh epoch offers more headroom, so
			// defer it instead of failing. Nothing is charged — the failed
			// attempt's state lives only in the dropped tx overlays.
			return nil, true
		}
		rec.GasUsed = gas
		cost := gasCost(gas)
		// Gas is charged whether or not the call succeeds.
		r.debit(tx.From, cost)
		spent.Add(spent, cost)
		r.accDelta.BumpNonce(tx.From, tx.Nonce)
		if err != nil {
			return fail(err)
		}
		if bad, err := r.overflowGuardViolation(); err != nil {
			return fail(err)
		} else if bad {
			// Sec. 6: conservative per-shard overflow bound exceeded;
			// the transaction is rejected in-shard (a production system
			// would reroute it to the DS committee).
			r.net.m.overflowTrips.Inc()
			r.net.rec.OverflowGuardTripped(r.net.Epoch, r.shard, tx.ID)
			return fail(ErrOverflowGuard)
		}
		if err := r.applyMoves(); err != nil {
			return fail(err)
		}
		for i := range r.txOvs[:r.txLive] {
			r.txOvs[i].ov.CommitTo(r.txOvs[i].shardOv)
		}
		rec.Success = true
		rec.Events = detachMaps(events)
		return rec, false
	default:
		return fail(errors.New("unsupported transaction kind"))
	}
}

// detachMaps copies map values out of event payloads. A transition that
// loads a whole map field it has not written gets the canonical map
// itself; canonical state is merged in place at every commit, and the
// receipt outlives the epoch (in the EpochStats its caller may keep,
// and on a shard node the MicroBlock encoded after the run), so an event
// has to own the maps it shows.
func detachMaps(events []value.Msg) []value.Msg {
	for _, ev := range events {
		for k, v := range ev.Entries {
			if holdsMap(v) {
				ev.Entries[k] = value.Copy(v)
			}
		}
	}
	return events
}

func holdsMap(v value.Value) bool {
	switch t := v.(type) {
	case *value.Map:
		return true
	case value.ADT:
		for _, a := range t.Args {
			if holdsMap(a) {
				return true
			}
		}
	}
	return false
}

// maxCallDepth bounds message chains between contracts on the DS
// committee.
const maxCallDepth = 8

// call runs one transition of the contract at `to` on the running
// transaction's overlay for it and queues the native-token movements
// it asks for: the accepted amount, then each message's in order. A
// message to a user only moves tokens. A message to a contract is a
// nested call, which the DS committee's run follows up to maxCallDepth
// under what is left of the caller's gas; shards send to users only
// (dispatch keeps contract recipients out of shard queues). It returns
// the events and the gas of the whole chain.
func (r *shardRun) call(origin, sender, to chain.Address, transition string,
	args map[string]value.Value, amount *big.Int, gasLimit uint64, depth int) ([]value.Msg, uint64, error) {

	if depth > maxCallDepth {
		return nil, 0, ErrCallDepthExceeded
	}
	c := r.net.Contracts.Get(to)
	if c == nil {
		return nil, 0, fmt.Errorf("%w %s", ErrUnknownContract, to)
	}
	ctx := &r.evalCtx
	ctx.Sender = sender.Value()
	ctx.Origin = ctx.Sender
	if origin != sender {
		ctx.Origin = origin.Value()
	}
	ctx.Amount = value.Int{Ty: ast.TyUint128, V: amount}
	ctx.BlockNumber = r.scrBlk.SetUint64(r.net.BlockNumber)
	ctx.State = r.txOverlayFor(c)
	ctx.GasLimit = gasLimit
	ctx.ContractBalance = r.scrCB.Set(r.balanceView(to))
	res, err := runTransition(&r.net.cfg, c, ctx, transition, args)
	gas := ctx.GasUsed
	if err != nil {
		return nil, gas, err
	}
	if res.Accepted && amount.Sign() > 0 {
		r.moves = append(r.moves, tokenMove{from: sender, to: to, amount: amount})
	}
	events := res.Events
	for _, m := range res.Messages {
		rcp, ok := m.Entries["_recipient"]
		if !ok {
			return nil, gas, fmt.Errorf("%w: message without _recipient", ErrMalformedMessage)
		}
		addr, ok := chain.AddressFromValue(rcp)
		if !ok {
			return nil, gas, fmt.Errorf("%w: malformed _recipient", ErrMalformedMessage)
		}
		var msgAmount *big.Int // nil without an _amount entry
		if amt, ok := m.Entries["_amount"]; ok {
			iv, ok := amt.(value.Int)
			if !ok {
				return nil, gas, fmt.Errorf("%w: malformed _amount", ErrMalformedMessage)
			}
			msgAmount = iv.V
		}
		if !r.net.Accounts.IsContract(addr) {
			if msgAmount != nil && msgAmount.Sign() > 0 {
				r.moves = append(r.moves, tokenMove{from: to, to: addr, amount: msgAmount})
			}
			continue
		}
		if r.shard != dispatch.DS {
			return nil, gas, fmt.Errorf("%w %s", ErrContractRecipient, addr)
		}
		tag, ok := m.Entries["_tag"].(value.Str)
		if !ok {
			return nil, gas, fmt.Errorf("%w: contract call without _tag", ErrMalformedMessage)
		}
		rem := gasLimit // 0 is "unlimited" all the way down
		if gasLimit > 0 {
			if gas >= gasLimit {
				return nil, gas, &eval.OutOfGasError{Limit: gasLimit}
			}
			rem = gasLimit - gas
		}
		if msgAmount == nil {
			msgAmount = new(big.Int)
		}
		callArgs := make(map[string]value.Value)
		for k, v := range m.Entries {
			if k != "_tag" && k != "_recipient" && k != "_amount" {
				callArgs[k] = v
			}
		}
		subEvents, subGas, err := r.call(origin, to, addr, tag.S, callArgs, msgAmount, rem, depth+1)
		gas += subGas
		if err != nil {
			return nil, gas, err
		}
		events = append(events, subEvents...)
	}
	return events, gas, nil
}

// overflowGuardViolation implements the Sec. 6 conservative check: for
// every IntMerge component the running shard transaction changed, the
// shard's cumulative delta relative to the epoch-start value v0 must
// stay within ⌊(MAX − v0)/N⌋ above and ⌊(v0 − MIN)/N⌋ below, so that N
// shards' deltas can never jointly overflow. The DS committee's run
// writes alone, after the merge, and is exempt.
func (r *shardRun) overflowGuardViolation() (bool, error) {
	n := int64(r.net.cfg.NumShards)
	if !r.net.cfg.OverflowGuard || r.shard == dispatch.DS || n <= 1 {
		return false, nil
	}
	c, txOv := r.txOvs[0].c, r.txOvs[0].ov
	if c.Sig == nil {
		return false, nil
	}
	d, err := txOv.ExtractDelta(c.Addr, r.shard, c.Sig.Joins)
	if err != nil {
		return false, err
	}
	base := c.Snapshot()
	for f, fd := range d.Fields {
		if c.Sig.Joins[f] != signature.IntMerge {
			continue
		}
		check := func(keys []value.Value) (bool, error) {
			// Cumulative shard value after this tx vs epoch start.
			var cur, v0 value.Value
			var ok bool
			if keys == nil {
				cur, err = txOv.LoadField(f)
				if err != nil {
					return false, err
				}
				v0, err = base.LoadField(f)
				if err != nil {
					return false, err
				}
			} else {
				cur, ok, err = eval.GetAt(txOv, f, keys)
				if err != nil || !ok {
					return false, err
				}
				v0, ok, err = eval.GetAt(base, f, keys)
				if err != nil {
					return false, err
				}
				if !ok {
					v0 = nil
				}
			}
			ci, ok := cur.(value.Int)
			if !ok {
				return false, nil
			}
			zero := big.NewInt(0)
			base0 := zero
			if v0 != nil {
				if vi, ok := v0.(value.Int); ok {
					base0 = vi.V
				}
			}
			delta := new(big.Int).Sub(ci.V, base0)
			if delta.Sign() >= 0 {
				headroom := new(big.Int).Sub(ast.MaxInt(ci.Ty), base0)
				headroom.Div(headroom, big.NewInt(n))
				return delta.Cmp(headroom) > 0, nil
			}
			footroom := new(big.Int).Sub(base0, ast.MinInt(ci.Ty))
			footroom.Div(footroom, big.NewInt(n))
			neg := new(big.Int).Neg(delta)
			return neg.Cmp(footroom) > 0, nil
		}
		if fd.Whole != nil {
			bad, err := check(nil)
			if err != nil || bad {
				return bad, err
			}
		}
		for _, e := range fd.Entries {
			if e.Kind != chain.IntAdd {
				continue
			}
			bad, err := check(e.Keys)
			if err != nil || bad {
				return bad, err
			}
		}
	}
	return false, nil
}
