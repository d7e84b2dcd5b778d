package node

import (
	"slices"
	"sync"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

// handler is a node role as a step function: it holds the role's state
// and says what to do with one event. It starts no goroutine, takes no
// lock and reads no clock (each event carries now), so a test can
// drive it by hand. frame's false counts the frame in
// wire.recv_errors; a call is answered by fx.reply, now or later.
type handler interface {
	start(fx effects, now time.Time)
	frame(fx effects, now time.Time, from string, typ wire.MsgType, payload []byte) bool
	deadline(fx effects, now time.Time, key uint64)
	call(fx effects, now time.Time, c *call)
}

// effects is what a handler does beyond its own state. arm replaces a
// deadline already armed under the same key.
type effects interface {
	send(to string, frame []byte) error
	arm(key uint64, at time.Time)
	cancel(key uint64)
	reply(c *call, res any, err error)
}

// call is one call and, once answered, its reply: a client's closes
// done; one the handler makes itself hands it to then, unlocked.
type call struct {
	req, res any
	err      error
	done     chan struct{}
	then     func(res any, err error)
}

type deadline struct {
	at  time.Time
	key uint64
}

// nodeRuntime drives one handler and is all of a role's goroutines,
// lock, clock and timer. One goroutine hands each received frame to
// the handler under mu; the timer, kept no later than the earliest
// deadline, hands over every due one the same way; a client call
// enters under mu on its caller's goroutine, which waits for the reply.
type nodeRuntime struct {
	h    handler
	ep   Endpoint
	m    *linkMetrics
	once sync.Once
	quit chan struct{}
	wg   sync.WaitGroup
	// mu guards the handler's state, closed, the deadlines (earliest
	// first) and the answered calls whose then is still to run.
	mu        sync.Mutex
	closed    bool
	deadlines []deadline
	timer     *time.Timer
	after     []*call
}

// init attaches the runtime to h and to ep, instrumented with rec and
// reg (nil: a private registry); it returns the registry.
func (rt *nodeRuntime) init(h handler, ep Endpoint, rec obs.Recorder, reg *obs.Registry) *obs.Registry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := Instrument(ep, rec, reg).(*link)
	rt.h, rt.ep, rt.m, rt.quit = h, l, l.m, make(chan struct{})
	rt.timer = time.AfterFunc(time.Hour, rt.fire)
	rt.timer.Stop()
	return reg
}

func (rt *nodeRuntime) run() {
	rt.mu.Lock()
	rt.h.start(rt, time.Now())
	rt.unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for {
			from, frame, err := rt.ep.Recv()
			if err != nil {
				return
			}
			typ, payload, _, err := wire.DecodeFrame(frame)
			rt.mu.Lock()
			if err != nil || !rt.h.frame(rt, time.Now(), from, typ, payload) {
				rt.m.recvErrors.Inc()
			}
			rt.unlock()
		}
	}()
}

// fire hands the handler every due deadline; a wake may be early.
func (rt *nodeRuntime) fire() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.wg.Add(1) // close waits for the thens this wake runs
	defer rt.wg.Done()
	defer rt.unlock()
	now := time.Now()
	for len(rt.deadlines) > 0 && !rt.deadlines[0].at.After(now) {
		key := rt.deadlines[0].key
		rt.deadlines = rt.deadlines[1:]
		rt.h.deadline(rt, now, key)
	}
	if len(rt.deadlines) > 0 {
		rt.timer.Reset(rt.deadlines[0].at.Sub(now))
	}
}

// do enters a client call and returns its reply, or ErrTransportClosed.
func (rt *nodeRuntime) do(req any) (any, error) {
	c := &call{req: req, done: make(chan struct{})}
	rt.mu.Lock()
	if !rt.closed {
		rt.h.call(rt, time.Now(), c)
	}
	rt.unlock()
	select {
	case <-c.done:
		return c.res, c.err
	case <-rt.quit:
		return nil, ErrTransportClosed
	}
}

// close answers every waiting call with ErrTransportClosed, stops the
// deadlines, detaches the endpoint and waits for the goroutines.
func (rt *nodeRuntime) close() {
	rt.once.Do(func() {
		rt.mu.Lock()
		rt.closed = true
		rt.mu.Unlock()
		close(rt.quit)
	})
	rt.ep.Close()
	rt.wg.Wait()
	// Nothing arms a deadline any more. Wake the timer rather than leave
	// it armed or stopped: a timer the Go runtime still lists keeps the
	// handler, and so a role's whole state, reachable, and the wake
	// finds closed set and does nothing.
	rt.timer.Reset(0)
}

func (rt *nodeRuntime) send(to string, frame []byte) error { return rt.ep.Send(to, frame) }

func (rt *nodeRuntime) arm(key uint64, at time.Time) {
	rt.cancel(key)
	// After every deadline at or before at, so equal ones fire in the
	// order they were armed.
	i := len(rt.deadlines)
	for i > 0 && rt.deadlines[i-1].at.After(at) {
		i--
	}
	rt.deadlines = slices.Insert(rt.deadlines, i, deadline{at, key})
	if i == 0 {
		rt.timer.Reset(time.Until(at))
	}
}

// cancel leaves the timer as it is: a wake with nothing due re-arms it.
func (rt *nodeRuntime) cancel(key uint64) {
	if i := slices.IndexFunc(rt.deadlines, func(d deadline) bool { return d.key == key }); i >= 0 {
		rt.deadlines = slices.Delete(rt.deadlines, i, i+1)
	}
}

func (rt *nodeRuntime) reply(c *call, res any, err error) {
	c.res, c.err = res, err
	if c.then != nil {
		rt.after = append(rt.after, c)
	} else {
		close(c.done)
	}
}

// unlock releases mu, then runs the then of every call answered under
// it: a handler's own calls reach code outside the role only unlocked.
func (rt *nodeRuntime) unlock() {
	after := rt.after
	rt.after = nil
	rt.mu.Unlock()
	for _, c := range after {
		c.then(c.res, c.err)
	}
}
