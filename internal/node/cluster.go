package node

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cosplit/internal/shard"
	"cosplit/internal/store"
)

// Genesis deterministically provisions one network replica: accounts,
// contracts, any setup transactions. Every node in a cluster runs it
// independently, so it must be a pure function of its own inputs — the
// replicas start bit-identical and FinalBlock replay keeps them so.
type Genesis func() (*shard.Network, error)

// Cluster wires a full node topology over one transport: a DS
// committee, one shard node per shard of the genesis configuration,
// and one or more lookup nodes (ClusterLookupCount).
type Cluster struct {
	DS     *DS
	Shards []*ShardNode
	// Lookups holds every lookup node; Lookup aliases the first for
	// single-lookup callers.
	Lookups []*Lookup
	Lookup  *Lookup

	chanNet *ChanNetwork
	hub     *TCPHub
	stores  []*store.Store
}

// ClusterOption configures a cluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	tcpAddr       string
	dsOpts        []DSOption
	shardOpts     []ShardOption
	lookupOpts    []LookupOption
	lookupCount   int
	stateDir      string
	snapshotEvery int
}

// ClusterTCP runs the cluster over TCP sockets, its nodes registered
// with a hub listening on addr ("127.0.0.1:0" for an ephemeral port),
// instead of the default in-process channel transport.
func ClusterTCP(addr string) ClusterOption {
	return func(c *clusterConfig) { c.tcpAddr = addr }
}

// ClusterDS forwards role options to the DS committee.
func ClusterDS(opts ...DSOption) ClusterOption {
	return func(c *clusterConfig) { c.dsOpts = append(c.dsOpts, opts...) }
}

// ClusterShardNodes forwards role options to every shard node.
func ClusterShardNodes(opts ...ShardOption) ClusterOption {
	return func(c *clusterConfig) { c.shardOpts = append(c.shardOpts, opts...) }
}

// ClusterLookup forwards role options to every lookup node.
func ClusterLookup(opts ...LookupOption) ClusterOption {
	return func(c *clusterConfig) { c.lookupOpts = append(c.lookupOpts, opts...) }
}

// ClusterLookupCount runs n lookup nodes (default 1) named "lookup",
// "lookup-1", "lookup-2", ... — all announced to the committee and
// fanned FinalBlocks, so each serves clients with a consistent (if
// independently bounded) receipt cache.
func ClusterLookupCount(n int) ClusterOption {
	return func(c *clusterConfig) {
		if n > 0 {
			c.lookupCount = n
		}
	}
}

// ClusterStateDir makes every stateful node persistent: the DS
// committee journals to dir/ds and each shard node to dir/shard-<i>,
// snapshotting every `every` committed epochs. On construction each
// node recovers its replica from its own directory; a shard replica
// that fell behind the committee (its journal was torn, or its
// directory is fresh) catches up from the committee's directory and
// snapshots immediately, so its own journal resumes gap-free.
func ClusterStateDir(dir string, every int) ClusterOption {
	return func(c *clusterConfig) { c.stateDir, c.snapshotEvery = dir, every }
}

// NewCluster provisions and starts a cluster: the DS committee gets
// the canonical network, each shard node its own genesis replica.
// Node names are "ds", "shard-<i>", and "lookup".
func NewCluster(genesis Genesis, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{lookupCount: 1}
	for _, o := range opts {
		o(&cfg)
	}
	canonical, err := genesis()
	if err != nil {
		return nil, fmt.Errorf("node: genesis: %w", err)
	}
	numShards := canonical.Config().NumShards
	shardNames := make([]string, numShards)
	for i := range shardNames {
		shardNames[i] = fmt.Sprintf("shard-%d", i)
	}

	c := &Cluster{}
	endpoint := func(name string) (Endpoint, error) {
		if c.hub != nil {
			return DialTCP(c.hub.Addr(), name)
		}
		return c.chanNet.Endpoint(name), nil
	}
	if cfg.tcpAddr != "" {
		if c.hub, err = ListenTCP(cfg.tcpAddr); err != nil {
			return nil, err
		}
	} else {
		c.chanNet = NewChanNetwork()
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	// With a state directory, every stateful node recovers its replica
	// from its own subdirectory before joining the cluster. The
	// committee recovers first: its epoch is the yardstick the shard
	// replicas must reach.
	openStore := func(sub string, n *shard.Network) (*store.Store, error) {
		st, err := store.Open(filepath.Join(cfg.stateDir, sub), store.WithSnapshotEvery(cfg.snapshotEvery))
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, st)
		if err := st.Recover(n); err != nil {
			return nil, fmt.Errorf("node: recover %s: %w", sub, err)
		}
		return st, nil
	}
	var dsStore *store.Store
	if cfg.stateDir != "" {
		st, err := openStore("ds", canonical)
		if err != nil {
			return fail(err)
		}
		canonical.AttachStateStore(st)
		dsStore = st
	}

	dsEp, err := endpoint("ds")
	if err != nil {
		return fail(err)
	}
	dsOpts := []DSOption{DSLookups("lookup")}
	if dsStore != nil {
		// The committee's own journal backs replica catch-up requests
		// for epochs older than its in-memory ring.
		dsOpts = append(dsOpts, DSBlockSource(dsStore))
	}
	ds, err := NewDS("ds", canonical, dsEp, shardNames, append(dsOpts, cfg.dsOpts...)...)
	if err != nil {
		return fail(err)
	}
	c.DS = ds

	for i, name := range shardNames {
		replica, err := genesis()
		if err != nil {
			return fail(fmt.Errorf("node: genesis for %s: %w", name, err))
		}
		if cfg.stateDir != "" {
			st, err := openStore(name, replica)
			if err != nil {
				return fail(err)
			}
			if replica.Checkpoint().Epoch < canonical.Checkpoint().Epoch {
				// The replica's own directory is behind the committee
				// (fresh directory, or a journal torn further back):
				// catch up from the committee's directory into a fresh
				// genesis replica, then snapshot immediately so this
				// node's own journal resumes without a gap.
				if replica, err = genesis(); err != nil {
					return fail(fmt.Errorf("node: genesis for %s: %w", name, err))
				}
				if err := store.Restore(filepath.Join(cfg.stateDir, "ds"), replica); err != nil {
					return fail(fmt.Errorf("node: catch up %s from ds: %w", name, err))
				}
				if err := st.Snapshot(replica); err != nil {
					return fail(fmt.Errorf("node: catch up %s: %w", name, err))
				}
			}
			// NextTxID is excluded: only the committee assigns ids, so a
			// replica's stays wherever genesis left it.
			if rc, cc := replica.Checkpoint(), canonical.Checkpoint(); rc.Epoch != cc.Epoch || rc.BlockNumber != cc.BlockNumber {
				return fail(fmt.Errorf("node: %s recovered to %+v, committee at %+v", name, rc, cc))
			}
			replica.AttachStateStore(st)
		}
		ep, err := endpoint(name)
		if err != nil {
			return fail(err)
		}
		c.Shards = append(c.Shards, NewShard(name, i, replica, ep, "ds", cfg.shardOpts...))
	}

	for i := 0; i < cfg.lookupCount; i++ {
		name := "lookup"
		if i > 0 {
			name = fmt.Sprintf("lookup-%d", i)
		}
		lookupEp, err := endpoint(name)
		if err != nil {
			return fail(err)
		}
		c.Lookups = append(c.Lookups, NewLookup(name, lookupEp, "ds", cfg.lookupOpts...))
	}
	c.Lookup = c.Lookups[0]

	c.DS.Run()
	for _, s := range c.Shards {
		s.Run()
	}
	for _, l := range c.Lookups {
		l.Run()
	}
	return c, nil
}

// Tick drives one epoch through the committee.
func (c *Cluster) Tick() TickResult { return c.DS.Tick() }

// Produce starts a block producer that ticks the committee every
// interval (empty epochs produce empty blocks, like a real chain).
// onTick, if non-nil, observes every result — including transient
// errors. The returned stop function blocks until the producer exits;
// call it before Close.
func (c *Cluster) Produce(interval time.Duration, onTick func(TickResult)) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				res := c.Tick()
				if onTick != nil {
					onTick(res)
				}
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			wg.Wait()
		})
	}
}

// Close stops every node and the transport.
func (c *Cluster) Close() {
	for _, l := range c.Lookups {
		l.Close()
	}
	for _, s := range c.Shards {
		s.Close()
	}
	if c.DS != nil {
		c.DS.Close()
	}
	if c.chanNet != nil {
		c.chanNet.Close()
	}
	if c.hub != nil {
		c.hub.Close()
	}
	// Stores close after the nodes: the last applied FinalBlocks are
	// journaled by the node goroutines, which have all drained by now.
	for _, st := range c.stores {
		st.Close()
	}
}
