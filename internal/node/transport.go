package node

import (
	"fmt"
	"sync"
)

// Endpoint is one node's attachment to the cluster transport. Frames
// are opaque byte strings (encoded wire frames); the transport neither
// parses nor validates payloads, so corrupted frames travel as-is and
// are rejected by the receiving decoder.
//
// Send is safe for concurrent use. Recv is single-consumer: each node
// runs one receive loop. Delivery is best-effort and unordered across
// senders but FIFO per (sender, receiver) pair; a send to a closed or
// unknown peer fails with ErrTransportClosed / ErrUnknownPeer.
type Endpoint interface {
	// Name returns the node name this endpoint is registered under.
	Name() string
	// Send delivers a frame to the named peer.
	Send(to string, frame []byte) error
	// Recv blocks for the next inbound frame and its sender's name.
	// After Close it drains queued frames, then fails with
	// ErrTransportClosed.
	Recv() (from string, frame []byte, err error)
	// Close detaches the endpoint; blocked Recv calls return.
	Close() error
}

// ChanNetwork is the in-process transport: a named switch delivering
// frames between endpoints over unbounded in-memory queues. It is the
// default transport for tests and benchmarks — same frame bytes as
// TCP, none of the sockets.
type ChanNetwork struct {
	mu  sync.Mutex
	eps map[string]*chanEndpoint
}

// NewChanNetwork creates an empty in-process switch.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{eps: make(map[string]*chanEndpoint)}
}

// Endpoint registers (or returns) the endpoint named name.
func (n *ChanNetwork) Endpoint(name string) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[name]; ok {
		return ep
	}
	ep := &chanEndpoint{net: n, name: name}
	ep.box.init()
	n.eps[name] = ep
	return ep
}

// Close closes every registered endpoint.
func (n *ChanNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		ep.Close()
	}
	return nil
}

// delivery is one queued inbound frame.
type delivery struct {
	from  string
	frame []byte
}

// mailbox is an endpoint's inbound queue: unbounded, FIFO, and after
// close drained of what it holds before get reports
// ErrTransportClosed.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []delivery
	closed bool
}

func (m *mailbox) init() { m.cond.L = &m.mu }

func (m *mailbox) put(from string, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrTransportClosed
	}
	m.queue = append(m.queue, delivery{from: from, frame: frame})
	m.cond.Signal()
	return nil
}

func (m *mailbox) get() (string, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return "", nil, ErrTransportClosed
	}
	d := m.queue[0]
	m.queue[0] = delivery{} // the queue's array must not keep a handled frame alive
	m.queue = m.queue[1:]
	return d.from, d.frame, nil
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

type chanEndpoint struct {
	net  *ChanNetwork
	name string
	box  mailbox
}

func (e *chanEndpoint) Name() string { return e.name }

func (e *chanEndpoint) Send(to string, frame []byte) error {
	e.net.mu.Lock()
	dst := e.net.eps[to]
	e.net.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	// Copy: the frame crosses an ownership boundary, exactly as it
	// would through a socket. The sender may reuse its buffer.
	if err := dst.box.put(e.name, append([]byte(nil), frame...)); err != nil {
		return fmt.Errorf("send to %q: %w", to, err)
	}
	return nil
}

func (e *chanEndpoint) Recv() (string, []byte, error) { return e.box.get() }

func (e *chanEndpoint) Close() error {
	e.box.close()
	return nil
}
