// Package dispatch implements the lookup-node transaction dispatcher of
// Sec. 4.3: it evaluates a contract's sharding signature against a
// concrete transaction's arguments (the dispatch_oc(T, x) procedure)
// and routes the transaction to a satisfying shard, or to the DS
// committee when no shard satisfies the constraints.
//
// Ownership of state components (Owns constraints) is static and
// key-directed, mirroring the deterministic assignment the paper's
// integration uses: a map component m[k1]...[kn] is owned by the shard
// of its first key k1 (an address key hashes like an account, so
// balances[_sender] lands in the sender's home shard and
// allowances[from][_sender] co-locates with balances[from]); a whole
// field is owned by the contract's home shard. A transaction whose
// Owns constraints resolve to different shards cannot be placed and
// goes to the DS committee — e.g. ProofIPFS registrations touching
// both ipfsInventory[hash] and registered_items[_sender] (Sec. 5.2.1).
//
// Constraint sets are compiled once per (contract, transition) and
// cached, and the routing decision (Decide) touches no per-epoch
// dispatcher state. A Dispatcher is not safe for concurrent use: the
// package starts no goroutine and the epoch pipeline routes its packet
// from one, one transaction after another in submission order, so the
// replay table, load counters and plan cache are plain maps and slices.
//
// Observability: the dispatcher maintains a small set of always-on
// metrics (routing kind mix, plan-cache hit/miss, nonce-replay
// rejects) in an obs.Registry — pass one with WithMetrics to share it
// across components. Updates are atomic adds, so the Decide hot path
// stays at 0 allocs/op (asserted by TestDecideZeroAllocs).
package dispatch

import (
	"fmt"

	"cosplit/internal/chain"
	"cosplit/internal/obs"
)

// DS is the shard index denoting the DS committee.
const DS = -1

// ReasonShardUnavailable is the routing reason attached when the
// dispatcher reroutes a transaction to the DS committee because its
// target shard is marked unavailable (fault-recovery escalation).
const ReasonShardUnavailable = "shard unavailable: escalated to DS"

// Decision is the dispatcher's routing verdict for one transaction.
type Decision struct {
	// Shard is the placement: a shard index, or DS for the DS committee.
	Shard int
	// Reason is the human-readable routing explanation (a precompiled
	// constant — safe to retain and compare).
	Reason string
	// Rejected is true when the transaction is invalid (bad nonce,
	// replay, unknown contract) and must not be processed at all.
	Rejected bool
	// Err carries the typed rejection cause when Rejected is set (one
	// of the package's sentinel errors, testable with errors.Is); nil
	// for accepted transactions.
	Err error
}

// Routing is Decide's pure verdict: the Decision plus the placement
// notes the stateful commit step needs.
type Routing struct {
	Decision
	// Unconstrained marks a transaction any shard may execute; the
	// commit step places it on the least-loaded shard.
	Unconstrained bool
	// Invalid marks a rejection that precedes replay accounting
	// (unknown sender, stale nonce): the nonce is not consumed.
	Invalid bool
}

type nonceKey struct {
	from  chain.Address
	nonce uint64
}

// metrics are the dispatcher's always-on instruments. They live in an
// obs.Registry (shared or private) and are updated with atomic adds on
// the dispatch path.
type metrics struct {
	decisions     *obs.Counter // total commit verdicts
	routedShard   *obs.Counter // placed on a shard
	routedDS      *obs.Counter // placed on the DS committee
	unconstrained *obs.Counter // load-balanced placements
	rejected      *obs.Counter // invalid or replayed
	nonceReplay   *obs.Counter // rejected specifically as replays
	planHit       *obs.Counter // plan-cache hits in Decide
	planMiss      *obs.Counter // plan-cache compilations
	unavailable   *obs.Counter // rerouted to DS: target shard down
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		decisions:     reg.Counter("dispatch.decisions"),
		routedShard:   reg.Counter("dispatch.route.shard"),
		routedDS:      reg.Counter("dispatch.route.ds"),
		unconstrained: reg.Counter("dispatch.route.unconstrained"),
		rejected:      reg.Counter("dispatch.route.rejected"),
		nonceReplay:   reg.Counter("dispatch.nonce_replay"),
		planHit:       reg.Counter("dispatch.plan.hit"),
		planMiss:      reg.Counter("dispatch.plan.miss"),
		unavailable:   reg.Counter("dispatch.route.unavailable"),
	}
}

// Dispatcher routes transactions for one epoch.
type Dispatcher struct {
	// NumShards is the shard count routing resolves against.
	NumShards int
	// Accounts is the committed account table (nonce validation,
	// contract-address checks).
	Accounts *chain.Accounts
	// Contracts is the deployed-contract table (signature lookup).
	Contracts *chain.Contracts

	// load counts transactions routed per shard (index NumShards = DS).
	load []int64
	// rerouted counts, per shard, the transactions the availability
	// mask sent from that shard to the DS committee this epoch.
	rerouted []int64
	// nonces guards against replays within the epoch.
	nonces map[nonceKey]struct{}
	// plans caches the compiled per-(contract, transition) constraint
	// plan, nil for a transition outside the signature; signatures are
	// immutable once a contract is deployed.
	plans map[planKey]*plan
	// down marks shards the fault-recovery path has escalated: their
	// traffic is rerouted to the DS committee until they recover. nil
	// means every shard is available. Written only between epochs
	// (SetUnavailable).
	down []bool

	m metrics
}

type planKey struct {
	contract   chain.Address
	transition string
}

// Option configures a Dispatcher at construction time.
type Option func(*config)

type config struct {
	reg *obs.Registry
}

// WithMetrics registers the dispatcher's instruments in reg instead of
// a private registry, so dispatch metrics appear in the same snapshot
// as the rest of the pipeline's.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.reg = reg }
}

// New creates a dispatcher for an epoch.
func New(numShards int, accounts *chain.Accounts, contracts *chain.Contracts, opts ...Option) *Dispatcher {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	return &Dispatcher{
		NumShards: numShards,
		Accounts:  accounts,
		Contracts: contracts,
		load:      make([]int64, numShards+1),
		rerouted:  make([]int64, numShards),
		nonces:    make(map[nonceKey]struct{}),
		plans:     make(map[planKey]*plan),
		m:         newMetrics(c.reg),
	}
}

// ResetEpoch clears the per-epoch load and reroute counters and replay
// table in place, reusing the allocated slices and map across epochs.
func (d *Dispatcher) ResetEpoch() {
	clear(d.load)
	clear(d.rerouted)
	clear(d.nonces)
}

// SetUnavailable replaces the shard-availability mask: down[s] marks
// shard s unavailable, rerouting its traffic to the DS committee with
// ReasonShardUnavailable. A nil (or all-false) mask restores full
// availability. Call it between epochs only.
func (d *Dispatcher) SetUnavailable(down []bool) {
	d.down = down
}

// shardDown reports whether the availability mask reroutes shard s.
func (d *Dispatcher) shardDown(s int) bool {
	return s >= 0 && s < len(d.down) && d.down[s]
}

// Load returns a copy of the per-shard load counters (last entry = DS).
func (d *Dispatcher) Load() []int {
	out := make([]int, len(d.load))
	for i, l := range d.load {
		out[i] = int(l)
	}
	return out
}

// Rerouted returns how many transactions placed on shard s the
// availability mask has sent to the DS committee this epoch. An
// unconstrained transaction routed to DS because every shard is down
// was placed on no shard and counts for none.
func (d *Dispatcher) Rerouted(s int) int { return int(d.rerouted[s]) }

// markNonce records a (sender, nonce) use; it reports false on replay.
func (d *Dispatcher) markNonce(from chain.Address, nonce uint64) bool {
	k := nonceKey{from: from, nonce: nonce}
	if _, dup := d.nonces[k]; dup {
		return false
	}
	d.nonces[k] = struct{}{}
	return true
}

// Decide computes the routing verdict for a transaction without
// touching any per-epoch mutable state (no replay table, no load
// counters; the only side effects are metric increments and the
// idempotent plan cache). It is the pure dispatch_oc(T, x) evaluation.
func (d *Dispatcher) Decide(tx *chain.Tx) Routing {
	// Validity (relaxed nonces, Sec. 4.2.1): the nonce must exceed the
	// committed account nonce.
	nonce, ok := d.Accounts.NonceOf(tx.From)
	if !ok {
		return Routing{Decision: rejection(ErrUnknownSender), Invalid: true}
	}
	if tx.Nonce <= nonce {
		return Routing{Decision: rejection(ErrStaleNonce), Invalid: true}
	}

	switch tx.Kind {
	case chain.TxTransfer:
		// User-to-user payments go to the sender's home shard, where
		// double spends are detected locally (Sec. 4.1).
		return Routing{Decision: Decision{Shard: chain.ShardOf(tx.From, d.NumShards), Reason: "sender home shard"}}
	case chain.TxDeploy:
		return Routing{Decision: Decision{Shard: DS, Reason: "contract deployment"}}
	}

	c := d.Contracts.Get(tx.To)
	if c == nil {
		return Routing{Decision: rejection(ErrUnknownContract)}
	}
	if c.Sig == nil {
		// Baseline strategy: in-shard only when sender and contract
		// share a home shard; otherwise the DS committee.
		s, cs := chain.ShardOf(tx.From, d.NumShards), chain.ShardOf(tx.To, d.NumShards)
		if s == cs {
			return Routing{Decision: Decision{Shard: s, Reason: "baseline: sender and contract co-located"}}
		}
		return Routing{Decision: Decision{Shard: DS, Reason: "baseline: cross-shard contract call"}}
	}
	p := d.planFor(c, tx.Transition)
	if p == nil {
		return dsRouting(reasonNotInSig)
	}
	return p.eval(d, tx)
}

// rejection builds a rejected Decision from a sentinel error.
func rejection(err error) Decision {
	return Decision{Rejected: true, Reason: err.Error(), Err: err}
}

// planFor returns the compiled constraint plan for (contract,
// transition), compiling and caching it on first use. A nil return
// means the transition is not in the sharding signature.
func (d *Dispatcher) planFor(c *chain.Contract, transition string) *plan {
	k := planKey{contract: c.Addr, transition: transition}
	if p, ok := d.plans[k]; ok {
		d.m.planHit.Inc()
		return p
	}
	d.m.planMiss.Inc()
	var p *plan
	if cs, ok := c.Sig.Constraints[transition]; ok {
		p = compilePlan(cs)
	}
	d.plans[k] = p
	return p
}

// commit applies the stateful half of dispatch: replay accounting,
// load-balanced placement of unconstrained transactions, and the load
// counters. Placement depends on the order of calls, so a packet is
// committed in submission order.
func (d *Dispatcher) commit(tx *chain.Tx, r Routing) Decision {
	d.m.decisions.Inc()
	if r.Invalid {
		d.m.rejected.Inc()
		return r.Decision
	}
	// Replay protection: a nonce may be used once per epoch. As in the
	// sequential dispatcher, the nonce is consumed even when routing
	// subsequently rejects the transaction (unknown contract). The
	// verdict carries ErrNonceReplay wrapped with the offending
	// (sender, nonce), so callers can errors.Is it and still see which
	// chain link replayed.
	if !d.markNonce(tx.From, tx.Nonce) {
		d.m.rejected.Inc()
		d.m.nonceReplay.Inc()
		return Decision{
			Rejected: true,
			Reason:   ErrNonceReplay.Error(),
			Err:      fmt.Errorf("sender %s nonce %d: %w", tx.From, tx.Nonce, ErrNonceReplay),
		}
	}
	if r.Rejected {
		d.m.rejected.Inc()
		return r.Decision
	}
	shard, reason := r.Shard, r.Reason
	if r.Unconstrained {
		shard = d.leastLoaded()
		d.m.unconstrained.Inc()
		if shard == DS {
			// Every shard is down; the DS committee absorbs the load.
			reason = ReasonShardUnavailable
			d.m.unavailable.Inc()
		}
	}
	// Unavailability backoff: traffic for an escalated shard executes on
	// the DS committee until the shard recovers (leastLoaded already
	// avoids down shards; this catches constrained placements).
	if d.shardDown(shard) {
		d.rerouted[shard]++
		shard, reason = DS, ReasonShardUnavailable
		d.m.unavailable.Inc()
	}
	if shard == DS {
		d.m.routedDS.Inc()
		d.load[d.NumShards]++
	} else {
		d.m.routedShard.Inc()
		d.load[shard]++
	}
	return Decision{Shard: shard, Reason: reason}
}

// Dispatch routes a transaction: the pure verdict, then the stateful
// commit. Load-balanced placement follows call order, so the epoch
// pipeline routes a packet in submission order.
func (d *Dispatcher) Dispatch(tx *chain.Tx) Decision {
	return d.commit(tx, d.Decide(tx))
}

// leastLoaded returns the available shard with the lowest load,
// preferring the lowest index on ties; DS when every shard is down.
func (d *Dispatcher) leastLoaded() int {
	best, bestLoad := DS, int64(0)
	for i := 0; i < d.NumShards; i++ {
		if d.shardDown(i) {
			continue
		}
		if l := d.load[i]; best == DS || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}
