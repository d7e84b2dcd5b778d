package node

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cosplit/internal/wire"
)

// The TCP transport is peer to peer around a directory. Every node
// dials the directory (TCPHub), registers its name together with the
// address of a listener of its own, and waits for the name to be
// echoed back (the registration ack). A node that sends to a peer for
// the first time asks the directory for the peer's address over the
// same connection, dials the peer once, and from then on writes
// straight to it: one connection per (sender, receiver) pair, so a
// frame crosses one socket and the pair stays FIFO. On that connection
// the dialer first names the peer it expects, the peer echoes its name
// (the hello), and then each frame travels as an envelope — a
// length-prefixed source name followed by one raw wire frame:
//
//	nameLen(2, big endian) | name | frame
//
// The directory protocol uses the same length-prefixed strings:
//
//	register  node → hub: name | listenAddr   hub → node: name
//	resolve   node → hub: name                hub → node: addr ("" if unknown)
//
// A receiver validates only frame headers (wire.AppendRawFrame), so
// corrupted payloads pass through to its decoder exactly as a faulty
// network would deliver them.

const maxPeerName = 256

// handshakeTimeout bounds every exchange with the directory and every
// dial and hello with a peer: a listener that accepts and stays silent
// fails the caller instead of hanging it.
var handshakeTimeout = 3 * time.Second

// TCPHub is the directory of the TCP transport: it maps each registered
// name to its node's listen address and relays no frame. It forgets a
// name when the connection that registered it closes, so a killed node
// can register again under the same name.
type TCPHub struct {
	acceptor
	dir map[string]string // name → listen address, under mu
}

// acceptor serves each connection its listener accepts on a goroutine
// of its own until close. Its mu and closed guard its owner's state
// too, and wg counts the owner's other goroutines.
type acceptor struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func (a *acceptor) start(ln net.Listener, serve func(net.Conn)) {
	a.ln, a.conns = ln, make(map[net.Conn]struct{})
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// The Add must be ordered against close's Wait. close sets
			// closed under this lock before it waits, so either we see
			// closed here and drop the conn, or close sees our Add.
			a.mu.Lock()
			if a.closed {
				a.mu.Unlock()
				c.Close()
				continue
			}
			a.conns[c] = struct{}{}
			a.wg.Add(1)
			a.mu.Unlock()
			go func() {
				defer a.wg.Done()
				serve(c)
				a.mu.Lock()
				delete(a.conns, c)
				a.mu.Unlock()
				c.Close()
			}()
		}
	}()
}

// close marks the acceptor closed and, under its lock, closes every
// connection it serves and runs also; then it closes the listener and
// waits for the goroutines. Only the first call acts.
func (a *acceptor) close(also func()) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	for c := range a.conns {
		c.Close()
	}
	also()
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

// ListenTCP starts a hub on addr (use "127.0.0.1:0" for an ephemeral
// test port).
func ListenTCP(addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &TCPHub{dir: make(map[string]string)}
	h.start(ln, h.serve)
	return h, nil
}

// Addr returns the hub's listen address, suitable for DialTCP.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Close stops the hub and severs every registration. Links already
// made between nodes stay up; only new resolutions fail.
func (h *TCPHub) Close() error { return h.close(func() {}) }

// serve registers one node and answers its resolutions until its
// connection closes.
func (h *TCPHub) serve(c net.Conn) {
	br := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	name, err := readName(br)
	if err != nil {
		return
	}
	addr, err := readName(br)
	if err != nil {
		return
	}
	h.mu.Lock()
	if _, taken := h.dir[name]; taken || h.closed {
		h.mu.Unlock()
		return
	}
	h.dir[name] = addr
	h.mu.Unlock()
	// The name is this connection's until it closes: a second
	// registration under it is refused above.
	defer func() {
		h.mu.Lock()
		delete(h.dir, name)
		h.mu.Unlock()
	}()
	// Ack registration by echoing the name: DialTCP blocks on this, so a
	// returned endpoint is already resolvable.
	if _, err := c.Write(appendName(nil, name)); err != nil {
		return
	}
	c.SetDeadline(time.Time{})
	var reply []byte
	for {
		peer, err := readName(br)
		if err != nil {
			return
		}
		h.mu.Lock()
		addr := h.dir[peer]
		h.mu.Unlock()
		reply = appendName(reply[:0], addr)
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}

func checkName(name string) error {
	if len(name) == 0 || len(name) > maxPeerName {
		return fmt.Errorf("%w: peer name length %d", ErrUnknownPeer, len(name))
	}
	return nil
}

// appendName appends s, length-prefixed, to dst. The empty string is
// the directory's "unknown" answer; names themselves pass checkName.
func appendName(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// readString reads one length-prefixed string of at most maxPeerName
// bytes; an empty one fails unless allowEmpty.
func readString(r *bufio.Reader, allowEmpty bool) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	ln := int(binary.BigEndian.Uint16(n[:]))
	if (ln == 0 && !allowEmpty) || ln > maxPeerName {
		return "", fmt.Errorf("%w: peer name length %d", wire.ErrDecode, ln)
	}
	b, err := r.Peek(ln)
	if err != nil {
		return "", err
	}
	s := string(b)
	r.Discard(ln)
	return s, nil
}

func readName(r *bufio.Reader) (string, error) { return readString(r, false) }

// tcpEndpoint is an Endpoint with a listener of its own, registered
// with the directory, and one outbound connection per peer it sends to.
type tcpEndpoint struct {
	acceptor // of inbound connections
	name     string
	env      []byte // the envelope header: this endpoint's name, length-prefixed
	box      mailbox

	// hubMu serializes resolutions on the registration connection.
	hubMu sync.Mutex
	hub   net.Conn
	hubBr *bufio.Reader

	out map[string]*peerConn // under mu
}

// peerConn is one outbound connection; mu keeps a frame's envelope
// contiguous on the stream.
type peerConn struct {
	c  net.Conn
	mu sync.Mutex
	bw *bufio.Writer
}

// DialTCP starts a listener on the local IP of the connection to the
// hub at addr and registers it under name.
func DialTCP(addr, name string) (Endpoint, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(c.LocalAddr().(*net.TCPAddr).IP.String(), "0"))
	if err != nil {
		c.Close()
		return nil, err
	}
	// Wait for the hub's registration ack (a name echo): once it
	// arrives, other peers can resolve this endpoint.
	br := bufio.NewReader(c)
	if err := handshake(c, br, appendName(appendName(nil, name), ln.Addr().String()), name); err != nil {
		c.Close()
		ln.Close()
		return nil, fmt.Errorf("hub handshake: %w: %v", ErrTransportClosed, err)
	}
	e := &tcpEndpoint{
		name:  name,
		env:   appendName(nil, name),
		hub:   c,
		hubBr: br,
		out:   make(map[string]*peerConn),
	}
	e.box.init()
	e.start(ln, e.readPeer)
	return e, nil
}

func (e *tcpEndpoint) Name() string { return e.name }

// readPeer answers one inbound connection's hello, then queues its
// frames until it closes. Each frame is read into a slice of its own.
func (e *tcpEndpoint) readPeer(c net.Conn) {
	br := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	if want, err := readName(br); err != nil || want != e.name {
		return
	}
	if _, err := c.Write(e.env); err != nil {
		return
	}
	c.SetDeadline(time.Time{})
	for {
		from, err := readName(br)
		if err != nil {
			return
		}
		// A framing error leaves no next-frame boundary: the connection
		// ends, and the sender dials again on its next send.
		frame, err := wire.AppendRawFrame(nil, br)
		if err != nil {
			return
		}
		if e.box.put(from, frame) != nil {
			return
		}
	}
}

// Send writes frame to the peer's connection, dialing it first if
// there is none. A failed write drops the connection, so the next send
// resolves the peer again.
func (e *tcpEndpoint) Send(to string, frame []byte) error {
	p, err := e.peer(to)
	if err != nil {
		return err
	}
	if err := p.write(e.env, frame); err != nil {
		e.drop(to, p)
		return fmt.Errorf("send to %q: %w: %v", to, ErrTransportClosed, err)
	}
	return nil
}

func (p *peerConn) write(env, frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bw.Write(env)
	p.bw.Write(frame)
	return p.bw.Flush()
}

// peer returns the connection to the named peer, resolving and dialing
// it when there is none.
func (e *tcpEndpoint) peer(to string) (*peerConn, error) {
	e.mu.Lock()
	closed, p := e.closed, e.out[to]
	e.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("send to %q: %w", to, ErrTransportClosed)
	}
	if p != nil {
		return p, nil
	}
	addr, err := e.resolve(to)
	if err != nil {
		return nil, err
	}
	if p, err = dialPeer(addr, to); err != nil {
		return nil, fmt.Errorf("send to %q: %w: %v", to, ErrTransportClosed, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		p.c.Close()
		return nil, fmt.Errorf("send to %q: %w", to, ErrTransportClosed)
	}
	if q := e.out[to]; q != nil {
		// A concurrent send connected first: one connection per pair is
		// what keeps the pair FIFO.
		p.c.Close()
		return q, nil
	}
	e.out[to] = p
	e.wg.Add(1)
	go e.watch(to, p)
	return p, nil
}

// watch drops an outbound connection as soon as the peer closes it,
// so the next send resolves the name again instead of writing into a
// dead socket. The peer writes nothing after its hello.
func (e *tcpEndpoint) watch(to string, p *peerConn) {
	defer e.wg.Done()
	var b [1]byte
	p.c.Read(b[:])
	e.drop(to, p)
}

// drop closes p and forgets it, unless a new connection to the peer
// has replaced it already.
func (e *tcpEndpoint) drop(to string, p *peerConn) {
	p.c.Close()
	e.mu.Lock()
	if e.out[to] == p {
		delete(e.out, to)
	}
	e.mu.Unlock()
}

// resolve asks the directory for the named peer's listen address.
func (e *tcpEndpoint) resolve(to string) (string, error) {
	if err := checkName(to); err != nil {
		return "", err
	}
	e.hubMu.Lock()
	defer e.hubMu.Unlock()
	e.hub.SetDeadline(time.Now().Add(handshakeTimeout))
	_, err := e.hub.Write(appendName(nil, to))
	var addr string
	if err == nil {
		addr, err = readString(e.hubBr, true)
	}
	if err != nil {
		// A reply that did not come in time may still arrive and would
		// answer the next question: the registration cannot be reused.
		e.hub.Close()
		return "", fmt.Errorf("resolve %q: %w: %v", to, ErrTransportClosed, err)
	}
	if addr == "" {
		return "", fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	return addr, nil
}

// dialPeer connects to the endpoint listening at addr and checks, by
// its hello, that it is the one named to.
func dialPeer(addr, to string) (*peerConn, error) {
	c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	if err := handshake(c, bufio.NewReader(c), appendName(nil, to), to); err != nil {
		c.Close()
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	return &peerConn{c: c, bw: bufio.NewWriter(c)}, nil
}

// handshake writes msg on c and waits, within handshakeTimeout, for
// the name want to be echoed back.
func handshake(c net.Conn, br *bufio.Reader, msg []byte, want string) error {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	echo := ""
	_, err := c.Write(msg)
	if err == nil {
		echo, err = readName(br)
	}
	if err == nil && echo != want {
		err = fmt.Errorf("answered as %q, not %q", echo, want)
	}
	c.SetDeadline(time.Time{})
	return err
}

func (e *tcpEndpoint) Recv() (string, []byte, error) { return e.box.get() }

// Close stops accepting, leaves the directory (which forgets the name)
// and severs every link. Frames already queued still drain from Recv.
func (e *tcpEndpoint) Close() error {
	return e.close(func() {
		for _, p := range e.out {
			p.c.Close()
		}
		e.hub.Close()
		e.box.close()
	})
}
