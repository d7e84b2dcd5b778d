package node

import (
	"fmt"
	"path/filepath"

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
// instead of the default in-process channel transport (addr "").
func ClusterTCP(addr string) ClusterOption {
	return func(c *clusterConfig) { c.tcpAddr = addr }
}

// ClusterShardNodes forwards role options to every shard node.
func ClusterShardNodes(opts ...ShardOption) ClusterOption {
	return func(c *clusterConfig) { c.shardOpts = append(c.shardOpts, opts...) }
}

// ClusterLookupCount runs n lookup nodes (default 1), named by
// LookupName, all announced to the committee and fanned FinalBlocks,
// so each serves clients with a consistent (if independently bounded)
// receipt cache.
func ClusterLookupCount(n int) ClusterOption {
	return func(c *clusterConfig) {
		if n > 0 {
			c.lookupCount = n
		}
	}
}

// ClusterStateDir makes every stateful node persistent: each opens its
// own subdirectory of dir through OpenReplica, the committee first; a
// replica that recovered behind the committee catches up over the wire.
func ClusterStateDir(dir string, every int) ClusterOption {
	return func(c *clusterConfig) { c.stateDir, c.snapshotEvery = dir, every }
}

// ShardNames names the shard nodes of a topology of n shards:
// "shard-0" … "shard-<n-1>".
func ShardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

// LookupName names the i-th lookup node: "lookup", then "lookup-1",
// "lookup-2", ….
func LookupName(i int) string {
	if i == 0 {
		return "lookup"
	}
	return fmt.Sprintf("lookup-%d", i)
}

// OpenReplica provisions the named role's replica from genesis. With a
// state directory it opens the role's own subdirectory dir/name,
// recovers the replica from it and attaches the store, so the role
// journals every block it commits; the caller closes the store after
// the role. With dir "" it returns a nil store.
func OpenReplica(genesis Genesis, dir, name string, snapshotEvery int) (*shard.Network, *store.Store, error) {
	n, err := genesis()
	if err != nil {
		return nil, nil, fmt.Errorf("node: genesis for %s: %w", name, err)
	}
	if dir == "" {
		return n, nil, nil
	}
	st, err := store.Open(filepath.Join(dir, name), store.WithSnapshotEvery(snapshotEvery))
	if err != nil {
		return nil, nil, err
	}
	if err := st.Recover(n); err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("node: recover %s: %w", name, err)
	}
	n.AttachStateStore(st)
	return n, st, nil
}

// NewCluster provisions and starts a cluster: the DS committee gets
// the canonical network, each shard node its own genesis replica.
// Node names are "ds", ShardNames and LookupName.
func NewCluster(genesis Genesis, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{lookupCount: 1}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cluster{}
	endpoint := func(name string) (Endpoint, error) {
		if c.hub != nil {
			return DialTCP(c.hub.Addr(), name)
		}
		return c.chanNet.Endpoint(name), nil
	}
	var err error
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
	open := func(name string) (*shard.Network, *store.Store, error) {
		n, st, err := OpenReplica(genesis, cfg.stateDir, name, cfg.snapshotEvery)
		if st != nil {
			c.stores = append(c.stores, st)
		}
		return n, st, err
	}

	canonical, st, err := open("ds")
	if err != nil {
		return fail(err)
	}
	dsOpts := []DSOption{DSLookups(LookupName(0))}
	if st != nil {
		// The committee's own journal serves replica catch-up requests.
		dsOpts = append(dsOpts, DSBlockSource(st))
	}
	dsEp, err := endpoint("ds")
	if err != nil {
		return fail(err)
	}
	shardNames := ShardNames(canonical.Config().NumShards)
	ds, err := NewDS("ds", canonical, dsEp, shardNames, append(dsOpts, cfg.dsOpts...)...)
	if err != nil {
		return fail(err)
	}
	c.DS = ds
	c.rts = append(c.rts, &ds.rt)

	for i, name := range shardNames {
		replica, _, err := open(name)
		if err != nil {
			return fail(err)
		}
		if replica.Epoch > canonical.Epoch {
			return fail(fmt.Errorf("node: %s recovered to epoch %d, past the committee's %d", name, replica.Epoch, canonical.Epoch))
		}
		ep, err := endpoint(name)
		if err != nil {
			return fail(err)
		}
		c.Shards = append(c.Shards, NewShard(name, i, replica, ep, "ds", cfg.shardOpts...))
		c.rts = append(c.rts, &c.Shards[i].rt)
	}

	for i := 0; i < cfg.lookupCount; i++ {
		name := LookupName(i)
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
