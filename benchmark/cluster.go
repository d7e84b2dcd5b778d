package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cosplit/internal/node"
	"cosplit/internal/rpc"
	"cosplit/internal/shard"
	"cosplit/internal/store"
	"cosplit/internal/workload"
)

// The cluster under test is the one `shardsim -serve -serve-tcp
// -state-dir` boots, with its defaults: three shards, a journal fsynced
// every epoch, a snapshot every eighth, default gas limits, compiled
// execution, sequential shard queues, no mempool.
const (
	numShards     = 3
	snapshotEvery = 8
	blockInterval = 50 * time.Millisecond
)

// roleStore sits between one role's network and its store. It
// publishes the checkpoint epoch of the last journaled block, which is
// how the harness learns that a replica has caught up without reading
// state its actor goroutine is writing. A traced run also times each
// commit here.
type roleStore struct {
	role      string
	inner     *store.Store
	tr        *tracer
	committed atomic.Uint64
}

func (s *roleStore) EpochCommitted(n *shard.Network, fb *shard.FinalBlock, cp shard.Checkpoint) error {
	var start time.Time
	if s.tr != nil {
		start = time.Now()
	}
	err := s.inner.EpochCommitted(n, fb, cp)
	if s.tr != nil {
		s.tr.commit(commitEvent{role: s.role, epoch: fb.Epoch, start: start, took: time.Since(start)})
	}
	s.committed.Store(cp.Epoch)
	return err
}

// cluster is one process's worth of roles: a TCP hub on loopback, the
// DS committee, one node per shard, one lookup, and the JSON-RPC
// server in front of the lookup. It is composed from the public
// constructors the way cmd/shardsim/noderole.go composes them, because
// a traced run has to put its own endpoint and store between each role
// and the transport.
type cluster struct {
	env    *workload.Env // the committee's genesis; its client half drives the generator
	hub    *node.TCPHub
	ds     *node.DS
	shards []*node.ShardNode
	lookup *node.Lookup
	stores []*roleStore
	srv    *http.Server
	served sync.WaitGroup
	url    string

	provision time.Duration // one workload.Provision (the committee's)
	start     time.Duration // everything else: stores, hub, dials, roles, HTTP
	closed    bool
}

func startCluster(w *workload.Workload, dir string, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	began := time.Now()
	var provisioning time.Duration

	if c.hub, err = node.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	endpoint := func(name string) (node.Endpoint, error) {
		ep, err := node.DialTCP(c.hub.Addr(), name)
		if err != nil {
			return nil, fmt.Errorf("dial hub as %s: %w", name, err)
		}
		if tr != nil {
			ep = &tracedEndpoint{Endpoint: ep, tr: tr}
		}
		return ep, nil
	}
	// stateful provisions one genesis replica and recovers it from a
	// fresh per-role directory, as every stateful role does at start.
	stateful := func(name string) (*workload.Env, *store.Store, node.Endpoint, error) {
		t0 := time.Now()
		env, err := workload.Provision(w, true, shard.WithShards(numShards))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("genesis for %s: %w", name, err)
		}
		took := time.Since(t0)
		provisioning += took
		if c.provision == 0 {
			c.provision = took
		}
		st, err := store.Open(filepath.Join(dir, name), store.WithSnapshotEvery(snapshotEvery))
		if err != nil {
			return nil, nil, nil, err
		}
		c.stores = append(c.stores, &roleStore{role: name, inner: st, tr: tr})
		if err := st.Recover(env.Net); err != nil {
			return nil, nil, nil, fmt.Errorf("recover %s: %w", name, err)
		}
		env.Net.AttachStateStore(c.stores[len(c.stores)-1])
		ep, err := endpoint(name)
		return env, st, ep, err
	}

	shardNames := make([]string, numShards)
	for i := range shardNames {
		shardNames[i] = fmt.Sprintf("shard-%d", i)
	}
	env, st, ep, err := stateful("ds")
	if err != nil {
		return nil, err
	}
	c.env = env
	if c.ds, err = node.NewDS("ds", env.Net, ep, shardNames, node.DSLookups("lookup"), node.DSBlockSource(st)); err != nil {
		return nil, err
	}
	for i, name := range shardNames {
		env, _, ep, err := stateful(name)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, node.NewShard(name, i, env.Net, ep, "ds"))
	}
	if ep, err = endpoint("lookup"); err != nil {
		return nil, err
	}
	c.lookup = node.NewLookup("lookup", ep, "ds")

	c.ds.Run()
	for _, s := range c.shards {
		s.Run()
	}
	c.lookup.Run()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = rpc.NewServer(c.lookup)
	if tr != nil {
		handler = tr.handler(handler)
	}
	c.srv = &http.Server{Handler: handler}
	c.url = "http://" + ln.Addr().String()
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		_ = c.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	c.start = time.Since(began) - provisioning
	return c, nil
}

// settled waits until every stateful role has journaled the
// committee's last epoch. Call it after the last Tick has returned.
func (c *cluster) settled(timeout time.Duration) error {
	head := c.stores[0].committed.Load()
	deadline := time.Now().Add(timeout)
	for _, s := range c.stores[1:] {
		for s.committed.Load() != head {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s journaled epoch %d, committee at %d", s.role, s.committed.Load(), head)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops the server, every role, the hub and the stores, and
// waits for their goroutines. After it returns the role networks are
// quiescent and safe to read.
func (c *cluster) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.srv != nil {
		c.srv.Close()
		c.served.Wait()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // rpc.Client pools on the default transport
	}
	if c.lookup != nil {
		c.lookup.Close()
	}
	var errs []error
	for _, s := range c.shards {
		s.Close()
		if err := s.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.ds != nil {
		c.ds.Close()
	}
	if c.hub != nil {
		c.hub.Close()
	}
	for _, s := range c.stores {
		if err := s.inner.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close %s store: %w", s.role, err))
		}
	}
	return errors.Join(errs...)
}

// head is one role's view of the chain after quiesce.
type head struct {
	role  string
	epoch uint64 // next epoch to run
	root  string
}

// heads closes the cluster and reads every stateful role's head.
func (c *cluster) heads() ([]head, error) {
	if err := c.close(); err != nil {
		return nil, err
	}
	out := []head{{"ds", c.ds.Net().Checkpoint().Epoch, c.ds.Net().StateRoot()}}
	for i, s := range c.shards {
		out = append(out, head{fmt.Sprintf("shard-%d", i), s.Net().Checkpoint().Epoch, s.Net().StateRoot()})
	}
	return out, nil
}

// headWatch polls Lookup.Chain in process and records the instant each
// epoch first became visible at the lookup. That instant is the commit
// time of every receipt in the epoch: a client polling over RPC would
// see it one poll later, and polling here adds no RPC load.
type headWatch struct {
	lk   *node.Lookup
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu   sync.Mutex
	seen map[uint64]time.Time
	next uint64
}

const watchInterval = 250 * time.Microsecond

func watchHead(lk *node.Lookup) *headWatch {
	w := &headWatch{lk: lk, quit: make(chan struct{}), done: make(chan struct{}), seen: make(map[uint64]time.Time)}
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.quit:
				return
			default:
			}
			// An empty root means no FinalBlock has arrived yet; epoch 0
			// alone cannot tell that apart from the genesis block.
			if epoch, root := lk.Chain(); root != "" && epoch >= w.next {
				now := time.Now()
				w.mu.Lock()
				for ; w.next <= epoch; w.next++ {
					w.seen[w.next] = now
				}
				w.mu.Unlock()
			}
			time.Sleep(watchInterval)
		}
	}()
	return w
}

// stop ends the polling; what was seen stays readable.
func (w *headWatch) stop() {
	w.once.Do(func() { close(w.quit) })
	<-w.done
}

// at reports when epoch became visible at the lookup.
func (w *headWatch) at(epoch uint64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.seen[epoch]
	return t, ok
}

// wait blocks until epoch is visible at the lookup.
func (w *headWatch) wait(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, ok := w.at(epoch); ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("epoch %d not visible at the lookup after %v", epoch, timeout)
		}
		time.Sleep(watchInterval)
	}
}
