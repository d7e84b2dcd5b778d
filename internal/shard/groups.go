package shard

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/dispatch"
)

// Intra-shard parallel execution (Config.IntraShardWorkers): the epoch
// batch of one shard is partitioned into conflict groups by the
// transactions' dispatch-derived footprints, groups execute
// concurrently against private overlays over the shared epoch-start
// snapshot, and the results are folded back in submission/group order
// through the per-field joins — producing a MicroBlock bit-identical
// to the sequential path.
//
// Grouping rule, per footprint key (a native account, a whole contract
// field, or one map entry):
//   - An exclusive access (anything that observes the component, or
//     writes it non-additively) unions its transaction with every other
//     toucher of the key. Within a group, members keep submission
//     order, so same-key read/write sequences replay exactly as the
//     sequential executor would.
//   - An additive access (a blind native-balance credit) unions only
//     with exclusive touchers of the key. Credits commute with each
//     other — AccountDelta.AddBalance sums — so two transactions whose
//     only overlap is crediting the same account stay in separate
//     groups.
//
// Commutative contract-state writes (IntMerge) are exclusive here even
// though the cross-shard dispatcher lets them proceed without
// ownership: the written value derives from the locally observed one
// (read-add-write, with branch- and overflow-dependent gas), so only
// writers of distinct components commute bit-identically.

// fpPart holds one worker's share of the footprint phase: the accesses
// of a contiguous range of the queue, with offs[i] indexing the range's
// i-th transaction into flat.
type fpPart struct {
	flat   []dispatch.FootprintAccess
	offs   []int
	wholes map[fieldKey]bool
	ok     bool
}

type fieldKey struct {
	contract chain.Address
	field    string
}

// groupQueue partitions queue into conflict groups. Each group is a
// list of queue indices in submission order; groups are ordered by
// their first member. ok is false when any transaction's footprint is
// statically unknown (no signature, ⊥ transition, unresolvable keys) —
// the batch must then run sequentially.
//
// Footprint resolution is per-transaction independent, so it fans out
// over the modeled workers (contiguous ranges, host goroutines bounded
// by GOMAXPROCS); only the union-find that follows is sequential. The
// returned prep duration models what the configured worker count pays:
// the slowest footprint part plus the sequential grouping.
func (n *Network) groupQueue(queue []*chain.Tx, workers int) ([][]int, time.Duration, bool) {
	if workers > len(queue) {
		workers = len(queue)
	}
	parts := make([]fpPart, workers)
	partTimes := make([]time.Duration, workers)
	per := (len(queue) + workers - 1) / workers
	gmax := workers
	if p := runtime.GOMAXPROCS(0); p < gmax {
		gmax = p
	}
	var next atomic.Int64
	claim := func() {
		for {
			pi := int(next.Add(1)) - 1
			if pi >= workers {
				return
			}
			fillPart(n, queue, pi*per, per, &parts[pi], &partTimes[pi])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < gmax; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	var fpMax time.Duration
	var wholes map[fieldKey]bool
	for pi := range parts {
		if !parts[pi].ok {
			return nil, 0, false
		}
		if partTimes[pi] > fpMax {
			fpMax = partTimes[pi]
		}
		for k := range parts[pi].wholes {
			if wholes == nil {
				wholes = make(map[fieldKey]bool)
			}
			wholes[k] = true
		}
	}

	seqStart := time.Now()
	// Wide-field promotion: a whole-field access conflicts with every
	// entry of the field, so all of that field's accesses collapse to
	// the field-level key.
	if len(wholes) > 0 {
		for pi := range parts {
			flat := parts[pi].flat
			for idx := range flat {
				a := &flat[idx]
				if a.Key.Field != "" && wholes[fieldKey{a.Key.Contract, a.Key.Field}] {
					a.Key.Entry = ""
				}
			}
		}
	}

	// Union-find over queue indices.
	parent := make([]int, len(queue))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	type keyState struct {
		anchor  int   // first exclusive toucher, -1 while none seen
		pending []int // additive touchers seen before any anchor
	}
	states := make(map[dispatch.FootprintKey]*keyState, 3*len(queue))
	for i := range queue {
		p := &parts[i/per]
		li := i % per
		for _, a := range p.flat[p.offs[li]:p.offs[li+1]] {
			ks := states[a.Key]
			if ks == nil {
				ks = &keyState{anchor: -1}
				states[a.Key] = ks
			}
			if a.Additive {
				if ks.anchor >= 0 {
					union(i, ks.anchor)
				} else {
					ks.pending = append(ks.pending, i)
				}
				continue
			}
			if ks.anchor < 0 {
				ks.anchor = i
				for _, p := range ks.pending {
					union(p, i)
				}
				ks.pending = nil
			} else {
				union(i, ks.anchor)
			}
		}
	}

	order := make(map[int]int)
	var groups [][]int
	for i := range queue {
		r := find(i)
		gi, ok := order[r]
		if !ok {
			gi = len(groups)
			order[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups, fpMax + time.Since(seqStart), true
}

// fillPart resolves the footprints of queue[start:start+count] into
// one worker's fpPart, recording the part's host time.
func fillPart(n *Network, queue []*chain.Tx, start, count int, part *fpPart, took *time.Duration) {
	t0 := time.Now()
	if start >= len(queue) {
		part.ok = true
		return
	}
	end := start + count
	if end > len(queue) {
		end = len(queue)
	}
	part.flat = make([]dispatch.FootprintAccess, 0, 3*(end-start))
	part.offs = make([]int, 1, end-start+1)
	var scratch []dispatch.FootprintAccess // Footprint resets its buffer per call
	for _, tx := range queue[start:end] {
		var ok bool
		scratch, ok = n.Disp.Footprint(tx, scratch)
		if !ok {
			*took = time.Since(t0)
			return
		}
		part.flat = append(part.flat, scratch...)
		part.offs = append(part.offs, len(part.flat))
		for _, a := range scratch {
			if a.Key.Field != "" && a.Key.Entry == "" {
				if part.wholes == nil {
					part.wholes = make(map[fieldKey]bool)
				}
				part.wholes[fieldKey{a.Key.Contract, a.Key.Field}] = true
			}
		}
	}
	part.ok = true
	*took = time.Since(t0)
}

// assignGroups statically distributes conflict groups over `workers`
// runs: groups sorted by descending member count (ties by group index)
// are placed largest-first on the least-loaded run, member count
// standing in for cost. The assignment is a deterministic function of
// the grouping — unlike dynamic work-stealing, it fixes which
// transactions share a run's overlays, and LPT placement keeps one
// oversized residue group from dragging singletons along with it.
func assignGroups(groups [][]int, workers int) [][]int {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(groups[order[a]]) > len(groups[order[b]])
	})
	assign := make([][]int, workers)
	loads := make([]int, workers)
	for _, gi := range order {
		wi := 0
		for j := 1; j < workers; j++ {
			if loads[j] < loads[wi] {
				wi = j
			}
		}
		assign[wi] = append(assign[wi], gi)
		loads[wi] += len(groups[gi])
	}
	return assign
}

// runShardGrouped attempts the intra-shard parallel path for one
// shard's batch. A nil MicroBlock (with nil error) means the batch must
// take the sequential path instead: intra-shard parallelism disabled,
// trivial batch, opaque footprints, a single conflict group, a shard
// gas-limit trip (the deferral cut is a global prefix property the
// group results cannot reproduce), or a join conflict in the fold
// (grouping invariant violation — never expected, handled defensively).
func (n *Network) runShardGrouped(s int, queue []*chain.Tx) (*MicroBlock, error) {
	if n.cfg.IntraShardWorkers <= 1 || len(queue) <= 1 {
		return nil, nil
	}
	if n.cfg.OverflowGuard && n.cfg.NumShards > 1 {
		// The Sec. 6 guard bounds each transaction's *cumulative shard*
		// IntMerge delta; group-local overlays cannot observe other
		// groups' deltas, so the verdict could diverge from sequential.
		return nil, nil
	}
	groups, prepTime, ok := n.groupQueue(queue, n.cfg.IntraShardWorkers)
	if !ok || len(groups) <= 1 {
		n.m.groupFallbacks.Inc()
		return nil, nil
	}
	largest, residue := 0, 0
	for _, g := range groups {
		if len(g) > largest {
			largest = len(g)
		}
		if len(g) > 1 {
			residue += len(g)
		}
	}
	n.m.groups.Observe(int64(len(groups)))
	n.m.groupSize.Observe(int64(largest))
	n.m.groupResidue.Observe(int64(residue))
	n.rec.ShardGroupsFormed(n.Epoch, s, len(groups), largest, residue)

	// Execute on one shardRun per *modeled* worker. Each run owns a
	// deterministic set of groups (assignGroups) and overlays over the
	// shared epoch-start snapshot: a run's groups execute back-to-back,
	// and because every observable component (an exclusive footprint
	// key) is confined to a single group, a group never sees a
	// co-resident group's writes. Each run also extracts its own state
	// deltas inside its timed span, so extraction — a real part of
	// sealing the MicroBlock — parallelises with execution instead of
	// serialising in the fold. Host goroutines (bounded by GOMAXPROCS)
	// claim whole runs; the per-run times model what the configured
	// worker count would pay regardless of how few actually ran at
	// once. Receipts land in a flat per-transaction slice (disjoint
	// indices, safe concurrently).
	workers := n.cfg.IntraShardWorkers
	if len(groups) < workers {
		workers = len(groups)
	}
	assign := assignGroups(groups, workers)
	runs := make([]*shardRun, workers)
	runDeltas := make([][]*chain.StateDelta, workers)
	runErrs := make([]error, workers)
	runTimes := make([]time.Duration, workers)
	recs := make([]*chain.Receipt, len(queue))
	execRun := func(wi int) {
		start := time.Now()
		run := n.newShardRun(s)
		runs[wi] = run
		for _, gi := range assign[wi] {
			for _, ti := range groups[gi] {
				// Workers run under the transactions' own gas limits; the
				// fold below re-checks the MicroBlock budget and falls back
				// to the sequential path when a receipt no longer fits.
				recs[ti], _ = run.execute(queue[ti], 0)
			}
		}
		runDeltas[wi], runErrs[wi] = run.extractDeltas()
		runTimes[wi] = time.Since(start)
	}
	gmax := workers
	if p := runtime.GOMAXPROCS(0); p < gmax {
		gmax = p
	}
	if gmax <= 1 {
		for wi := 0; wi < workers; wi++ {
			execRun(wi)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < gmax; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					wi := int(next.Add(1)) - 1
					if wi >= workers {
						return
					}
					execRun(wi)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range runErrs {
		if err != nil {
			return nil, err
		}
	}

	// Deterministic fold: receipts in submission order with the same
	// gas-limit pre-check the sequential loop applies, account deltas
	// over the worker runs in run order (AccountDelta.Merge is
	// commutative regardless), and per-contract state deltas joined
	// pairwise over contracts sorted by address — each observable
	// component lives in exactly one group and hence one run, so the
	// join never sees two writes to the same component.
	foldStart := time.Now()
	mb := &MicroBlock{Shard: s, Epoch: n.Epoch, Accounts: chain.NewAccountDelta()}
	for i := range queue {
		// Fall back to the sequential path as soon as a receipt would
		// not fit in the MicroBlock's remaining gas: the sequential loop
		// owns the defer-or-fail semantics for epoch-capped transactions,
		// and rerunning under it reproduces these receipts bit-for-bit
		// (each committed receipt's gas fits the budget the sequential
		// executor would have offered it).
		remaining := n.cfg.ShardGasLimit - mb.GasUsed
		rec := recs[i]
		if remaining == 0 || rec.GasUsed > remaining {
			n.m.groupFallbacks.Inc()
			return nil, nil
		}
		rec.Shard = s
		rec.Epoch = n.Epoch
		mb.Receipts = append(mb.Receipts, rec)
		mb.GasUsed += rec.GasUsed
	}
	for _, run := range runs {
		mb.Accounts.Merge(run.accDelta)
	}

	var all []*chain.StateDelta
	for _, ds := range runDeltas {
		all = append(all, ds...)
	}
	addrs, perContract := groupByContract(all)
	for _, addr := range addrs {
		ds := perContract[addr]
		if len(ds) == 1 {
			mb.Deltas = append(mb.Deltas, ds[0])
			continue
		}
		merged, err := chain.MergeCommutative(ds)
		if err != nil {
			n.m.groupFallbacks.Inc()
			return nil, nil
		}
		mb.Deltas = append(mb.Deltas, merged)
	}
	fold := time.Since(foldStart)
	n.m.foldTime.ObserveDuration(fold)
	n.rec.GroupFoldDone(n.Epoch, s, len(addrs), fold)

	// The modelled execute stage: the grouping prepass (its footprint
	// phase already modelled as the slowest part), the slowest modelled
	// worker's run (execution plus its own delta extraction), and the
	// (sequential) fold. The host may have run fewer goroutines; the
	// per-run times are host-measured either way.
	var makespan time.Duration
	for _, rt := range runTimes {
		if rt > makespan {
			makespan = rt
		}
	}
	mb.ExecTime = prepTime + makespan + fold
	return mb, nil
}
