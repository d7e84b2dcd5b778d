package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"cosplit/internal/node"
	"cosplit/internal/rpc"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// serve composes the roles in one process (node.NewCluster), the node
// subcommands one role per OS process, so that kill -9 is a real fault
// and restart plus wire resync a real recovery. Either way each role
// recovers from its own subdirectory of -state-dir (node.OpenReplica).

// genesis provisions -workload over -shards, a pure function of the
// two, so every replica and the hammer start from the same chain.
func (c *config) genesis() node.Genesis {
	w, err := workload.ByName(c.workload)
	fail(err)
	return func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(c.shards))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
}

func (c *config) openRole(name string) (*shard.Network, *store.Store) {
	n, st, err := node.OpenReplica(c.genesis(), c.stateDir, name, c.snapEvery)
	fail(err)
	if st != nil {
		fmt.Fprintf(os.Stderr, "shardsim: %s recovered epoch=%d root=%s\n", name, n.Checkpoint().Epoch, n.StateRoot())
	}
	return n, st
}

// roleIndex reads a role's <i>, 0 when absent.
func roleIndex(arg string, limit int) int {
	i, err := strconv.Atoi(arg)
	if arg != "" && (err != nil || i < 0 || i >= limit) {
		fail(fmt.Errorf("role index %q: want an integer in [0, %d)", arg, limit))
	}
	return i
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// shutdown waits for SIGINT or SIGTERM, stops the role, prints n's
// chain head as "node: final epoch=E root=R" and then closes st, if
// any.
func shutdown(stop func(), n *shard.Network, st *store.Store) {
	awaitSignal()
	stop()
	fmt.Printf("node: final epoch=%d root=%s\n", n.Checkpoint().Epoch, n.StateRoot())
	if st != nil {
		fail(st.Close())
	}
}

func runServe(c *config) {
	// An empty -hub runs the cluster over in-process channels, an
	// empty -state-dir keeps every role in memory.
	cluster, err := node.NewCluster(c.genesis(), node.ClusterTCP(c.hub), node.ClusterStateDir(c.stateDir, c.snapEvery),
		node.ClusterShardNodes(node.ShardFaults(c.plan)), node.ClusterLookupCount(c.lookups))
	fail(err)
	stop := cluster.DS.Produce(c.interval, logProducerErr)
	go func() { fail(http.ListenAndServe(c.rpc, rpc.NewServer(cluster.Lookup))) }()
	fmt.Fprintf(os.Stderr, "shardsim: JSON-RPC on http://%s/ (workload %q, %d shards, block interval %v, TCP hub %q, state dir %q)\n",
		c.rpc, c.workload, c.shards, c.interval, c.hub, c.stateDir)
	// Cluster.Close closes the nodes, then their stores.
	shutdown(func() { stop(); cluster.Close() }, cluster.DS.Net(), nil)
}

func runHub(c *config) {
	hub, err := node.ListenTCP(c.hub)
	fail(err)
	fmt.Fprintf(os.Stderr, "shardsim: hub on %s\n", hub.Addr())
	awaitSignal()
	hub.Close()
}

func runDS(c *config) {
	net, st := c.openRole("ds")
	var opts []node.DSOption
	if st != nil {
		opts = append(opts, node.DSBlockSource(st))
	}
	ds, err := node.NewDS("ds", net, dialHub(c.hub, "ds"), node.ShardNames(c.shards), opts...)
	fail(err)
	ds.Run()
	fmt.Fprintf(os.Stderr, "shardsim: ds driving %d shards every %v via %s\n", c.shards, c.interval, c.hub)
	stop := ds.Produce(c.interval, logProducerErr)
	shutdown(func() { stop(); ds.Close() }, net, st)
}

func runShard(c *config) {
	i := roleIndex(c.arg, c.shards)
	name := node.ShardNames(c.shards)[i]
	replica, st := c.openRole(name)
	sn := node.NewShard(name, i, replica, dialHub(c.hub, name), "ds", node.ShardFaults(c.plan))
	sn.Run()
	fmt.Fprintf(os.Stderr, "shardsim: %s executing via %s\n", name, c.hub)
	shutdown(func() {
		sn.Close()
		if err := sn.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "shardsim: %s: %v\n", name, err)
		}
	}, replica, st)
}

func runLookup(c *config) {
	name := node.LookupName(roleIndex(c.arg, math.MaxInt))
	l := node.NewLookup(name, dialHub(c.hub, name), "ds")
	l.Run()
	if c.rpc != "" {
		go func() { fail(http.ListenAndServe(c.rpc, rpc.NewServer(l))) }()
	}
	fmt.Fprintf(os.Stderr, "shardsim: %s via %s, JSON-RPC on %q\n", name, c.hub, c.rpc)
	awaitSignal()
	l.Close()
}

// dialHub registers with the hub, retrying while it comes up or still
// holds a killed predecessor's registration under the same name —
// roles are separate processes with no start ordering.
func dialHub(addr, name string) node.Endpoint {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ep, err := node.DialTCP(addr, name)
		if err == nil {
			return ep
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("dial hub %s as %q: %w", addr, name, err))
		}
		time.Sleep(250 * time.Millisecond)
	}
}
