package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cosplit/internal/rpc"
	"cosplit/internal/scilla/value"
	"cosplit/internal/workload"
)

// opTimeout bounds every wait on the cluster: a tick, an epoch
// becoming visible, replicas settling. Nothing healthy comes near it.
const opTimeout = 30 * time.Second

// sample is one transaction as its client saw it.
type sample struct {
	start time.Time     // due time (open loop) or send time
	late  time.Duration // open loop: how long after its due time it was sent
	rtt   time.Duration // submit round trip
	id    uint64        // committee-assigned id
	err   error         // submit error

	committed bool          // receipt present with Success
	latency   time.Duration // start to the receipt's epoch visible at the lookup
}

// read is one state query of the closed loop.
type read struct {
	rtt time.Duration
	err error
}

// tick is one driven epoch.
type tick struct {
	start time.Time
	took  time.Duration
	epoch uint64
	txs   int
	lost  int
}

// attempt is one cluster lifetime: set-up, warm-up, the timed window,
// verification, teardown.
type attempt struct {
	sp  *spec
	sz  size
	tr  *tracer // nil when untraced
	dir string

	w      *workload.Workload
	c      *cluster
	watch  *headWatch
	stream *stream

	samples []sample
	reads   [clients][]read
	// ticks and tickErr belong to whichever goroutine drives Tick: the
	// block producer while it runs, the harness otherwise.
	ticks   []tick
	tickErr error

	stopProducer func()

	setup                   time.Duration
	provision, clusterStart time.Duration // kept from the cluster at teardown
	begin, end              time.Time     // the timed window
	cpu                     time.Duration
	before                  runtimeCounters
	after                   runtimeCounters
	liveHeap                uint64
	heads                   []head
}

func newAttempt(sp *spec, sz size, seed int64, tr *tracer, dir string) *attempt {
	w := sp.gen()
	w.Seed = seed
	w.Users = sz.users
	return &attempt{sp: sp, sz: sz, tr: tr, dir: dir, w: w}
}

// setUp brings the cluster to the instant before the first timed
// operation: genesis for every stateful role (CoSplit analysis at
// deploy and the workload's setup transactions included), stores
// opened and recovered, roles, hub and HTTP up, the stream generated,
// warm-up committed.
func (a *attempt) setUp() error {
	began := time.Now()
	if err := os.MkdirAll(a.dir, 0o777); err != nil {
		return err
	}
	var err error
	if a.c, err = startCluster(a.w, a.dir, a.tr); err != nil {
		return err
	}
	a.watch = watchHead(a.c.lookup)
	a.stream = generate(a.sp, a.w, a.c.env, a.sz)
	a.samples = make([]sample, len(a.stream.txs))
	if a.sp.kind != epochLoop {
		a.startProducer()
	}
	if err := a.drive(0, a.sz.warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	a.setup = time.Since(began)
	return nil
}

// tearDown stops everything the attempt started and removes its state
// directory.
func (a *attempt) tearDown() error {
	if a.stopProducer != nil {
		a.stopProducer()
	}
	if a.watch != nil {
		a.watch.stop()
	}
	var err error
	if a.c != nil {
		err = a.c.close()
		a.provision, a.clusterStart = a.c.provision, a.c.start
		a.c = nil // let the role networks go
	}
	return errors.Join(err, os.RemoveAll(a.dir))
}

// startProducer ticks the committee every blockInterval, as the ds
// role of shardsim does.
func (a *attempt) startProducer() {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(blockInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				a.driveTick()
			case <-quit:
				return
			}
		}
	}()
	a.stopProducer = func() {
		close(quit)
		wg.Wait()
		a.stopProducer = nil
	}
}

// driveTick runs one epoch and keeps what it reported.
func (a *attempt) driveTick() (epoch uint64) {
	start := time.Now()
	res := a.c.ds.Tick()
	t := tick{start: start, took: time.Since(start)}
	if res.Err != nil {
		if a.tickErr == nil {
			a.tickErr = res.Err
		}
		return 0
	}
	t.epoch = res.Stats.Epoch
	t.txs = res.Stats.Committed + res.Stats.Failed + res.Stats.Rejected
	t.lost = res.Stats.Lost
	a.ticks = append(a.ticks, t)
	return t.epoch
}

// drive pushes stream[from:to) through the workload's own path and
// returns once every one of them is committed and visible.
func (a *attempt) drive(from, to int) error {
	if a.sp.kind == epochLoop {
		for lo := from; lo < to; lo += a.sz.batch {
			for i := lo; i < lo+a.sz.batch; i++ {
				s := &a.samples[i]
				s.start = time.Now()
				s.id, s.err = a.c.lookup.SubmitTx(a.stream.txs[i])
				s.rtt = time.Since(s.start)
			}
			epoch := a.driveTick()
			if a.tickErr != nil {
				return a.tickErr
			}
			if err := a.watch.wait(epoch, opTimeout); err != nil {
				return err
			}
		}
		return nil
	}

	base := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The query string tells a traced server which client's
			// operation a request belongs to; the RPC server ignores it.
			cl := rpc.NewClient(fmt.Sprintf("%s/?c=%d", a.c.url, c))
			for _, i := range a.stream.byClient[c] {
				if i < from || i >= to {
					continue
				}
				a.clientOp(cl, c, i, base)
			}
		}()
	}
	wg.Wait()
	// Without a mempool an epoch drains everything submitted before it
	// began, in arrival order, so once each client's last transaction
	// has its receipt at the lookup every earlier one has too.
	deadline := time.Now().Add(opTimeout)
	for c := 0; c < clients; c++ {
		last := lastSubmitted(a.samples[from:to], a.stream.byClient[c], from)
		for last != nil && a.c.lookup.Receipt(last.id) == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("transaction %d has no receipt after %v", last.id, opTimeout)
			}
			time.Sleep(watchInterval)
		}
	}
	return nil
}

// lastSubmitted finds the last of a client's transactions in
// samples (which starts at stream index from) that the committee
// accepted.
func lastSubmitted(samples []sample, mine []int, from int) *sample {
	for k := len(mine) - 1; k >= 0; k-- {
		if i := mine[k] - from; i >= 0 && i < len(samples) && samples[i].err == nil {
			return &samples[i]
		}
	}
	return nil
}

// clientOp sends one transaction and, in the closed loop, follows it
// with one read of the sender's state.
func (a *attempt) clientOp(cl *rpc.Client, c, i int, base time.Time) {
	tx := a.stream.txs[i]
	s := &a.samples[i]
	if a.tr != nil {
		a.tr.current[c].Store(int64(i))
	}
	sent := time.Now()
	s.start = sent
	if a.sp.kind == openLoop {
		s.start = base.Add(a.stream.due[i])
		if d := s.start.Sub(sent); d > 0 {
			time.Sleep(d)
			sent = time.Now()
		}
		s.late = sent.Sub(s.start)
	}
	s.id, s.err = cl.SendTx(tx)
	s.rtt = time.Since(sent)
	if a.sp.kind != closedLoop {
		return
	}
	// Alternate the two read paths: an account query and a map-entry
	// query, both answered by the DS actor between submissions.
	t0 := time.Now()
	var err error
	if len(a.reads[c])%2 == 0 {
		var res *rpc.BalanceResult
		if res, err = cl.GetBalance(tx.From); err == nil && !res.Found {
			err = fmt.Errorf("account %s not found", tx.From)
		}
	} else {
		var res *rpc.StateResult
		if res, err = cl.GetState(a.c.env.Contract, "balances", value.CanonicalKey(tx.From.Value())); err == nil && !res.Found {
			err = fmt.Errorf("balances[%s] not found", tx.From)
		}
	}
	a.reads[c] = append(a.reads[c], read{rtt: time.Since(t0), err: err})
}

// measure runs the timed window.
func (a *attempt) measure() error {
	for c := range a.reads {
		a.reads[c] = a.reads[c][:0] // drop the warm-up's reads
	}
	a.before = readRuntime()
	cpu0 := cpuTime()
	a.begin = time.Now()
	if err := a.drive(a.sz.warm, len(a.samples)); err != nil {
		return err
	}
	a.end = time.Now()
	a.cpu = cpuTime() - cpu0
	a.after = readRuntime()
	// Live heap: what the cluster holds once it is idle and the
	// generator's inputs are dropped, before anything is torn down. A
	// replica still applying the last block would add that block's
	// working set on some runs and not on others.
	if a.stopProducer != nil {
		a.stopProducer()
	}
	if err := a.c.settled(opTimeout); err != nil {
		return err
	}
	a.stream.txs, a.stream.due = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.liveHeap = ms.HeapAlloc
	return nil
}

// verify fetches every receipt over RPC, derives each transaction's
// commit latency from the epoch it names, then quiesces the cluster
// and checks that every role ended on the same epoch and root.
func (a *attempt) verify() error {
	if a.stopProducer != nil {
		a.stopProducer()
	}
	if a.tickErr != nil {
		return fmt.Errorf("block producer: %w", a.tickErr)
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rpc.NewClient(a.c.url)
			for i := c; i < len(a.samples); i += clients {
				s := &a.samples[i]
				if s.err != nil {
					continue
				}
				rc, err := cl.GetReceipt(s.id)
				if err != nil {
					errs[c] = fmt.Errorf("receipt %d: %w", s.id, err)
					return
				}
				if rc == nil || rc.TxID != s.id {
					continue // lost: counted as failed
				}
				at, ok := a.watch.at(rc.Epoch)
				if !ok {
					errs[c] = fmt.Errorf("receipt %d names epoch %d, which the lookup never showed", s.id, rc.Epoch)
					return
				}
				s.committed = rc.Success
				s.latency = at.Sub(s.start)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	if err := a.c.settled(opTimeout); err != nil {
		return err
	}
	if next := a.c.stores[0].committed.Load(); next > 0 {
		if err := a.watch.wait(next-1, opTimeout); err != nil {
			return err
		}
	}
	lkEpoch, lkRoot := a.c.lookup.Chain()
	a.watch.stop()
	var err error
	if a.heads, err = a.c.heads(); err != nil {
		return err
	}
	for _, h := range a.heads {
		if h.epoch != a.heads[0].epoch || h.root != a.heads[0].root {
			return fmt.Errorf("%s ended at epoch %d root %s, committee at epoch %d root %s",
				h.role, h.epoch, h.root, a.heads[0].epoch, a.heads[0].root)
		}
	}
	if lkEpoch+1 != a.heads[0].epoch || lkRoot != a.heads[0].root {
		return fmt.Errorf("lookup ended at block %d root %s, committee at epoch %d root %s",
			lkEpoch, lkRoot, a.heads[0].epoch, a.heads[0].root)
	}
	return nil
}

// timed returns the samples of the timed window.
func (a *attempt) timed() []sample { return a.samples[a.sz.warm:] }

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the allocator and collector totals a window is
// bracketed with.
type runtimeCounters struct {
	allocBytes uint64
	heapAlloc  uint64
	gcCPU      float64 // seconds
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	rc := runtimeCounters{allocBytes: ms.TotalAlloc, heapAlloc: ms.HeapAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU = s[0].Value.Float64()
	}
	return rc
}
