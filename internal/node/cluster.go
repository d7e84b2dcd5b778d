package node

import (
	"fmt"
	"path/filepath"
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
	// rts runs every role: the committee, the shard nodes, the lookups.
	rts []*nodeRuntime
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
// node recovers its replica from its own directory and reads no other;
// a shard replica that recovered behind the committee (its journal was
// torn, or its directory is fresh) catches up over the wire on the
// committee's first frame, from the committee's journal or a state
// image, as a restarted -node shard process does.
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
	// committee recovers first: no replica may be ahead of it.
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
	dsOpts := []DSOption{DSLookups("lookup")}
	if cfg.stateDir != "" {
		st, err := openStore("ds", canonical)
		if err != nil {
			return fail(err)
		}
		canonical.AttachStateStore(st)
		// The committee's own journal serves replica catch-up requests.
		dsOpts = append(dsOpts, DSBlockSource(st))
	}
	dsEp, err := endpoint("ds")
	if err != nil {
		return fail(err)
	}
	ds, err := NewDS("ds", canonical, dsEp, shardNames, append(dsOpts, cfg.dsOpts...)...)
	if err != nil {
		return fail(err)
	}
	c.DS = ds
	c.rts = append(c.rts, &ds.rt)

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
			if replica.Epoch > canonical.Epoch {
				return fail(fmt.Errorf("node: %s recovered to epoch %d, past the committee's %d", name, replica.Epoch, canonical.Epoch))
			}
			replica.AttachStateStore(st)
		}
		ep, err := endpoint(name)
		if err != nil {
			return fail(err)
		}
		c.Shards = append(c.Shards, NewShard(name, i, replica, ep, "ds", cfg.shardOpts...))
		c.rts = append(c.rts, &c.Shards[i].rt)
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
		c.rts = append(c.rts, &c.Lookups[i].rt)
	}
	c.Lookup = c.Lookups[0]
	for _, rt := range c.rts {
		rt.run()
	}
	return c, nil
}

// Tick drives one epoch through the committee.
func (c *Cluster) Tick() TickResult { return c.DS.Tick() }

// Produce makes the committee tick itself every interval: see
// DS.Produce.
func (c *Cluster) Produce(interval time.Duration, onTick func(TickResult)) (stop func()) {
	return c.DS.Produce(interval, onTick)
}

// Close stops every node, the lookups first, and the transport.
func (c *Cluster) Close() {
	for i := len(c.rts) - 1; i >= 0; i-- {
		c.rts[i].close()
	}
	if c.chanNet != nil {
		c.chanNet.Close()
	}
	if c.hub != nil {
		c.hub.Close()
	}
	// Stores close after the nodes: the last applied FinalBlocks are
	// journaled by the nodes' runtimes, which have all drained by now.
	for _, st := range c.stores {
		st.Close()
	}
}
