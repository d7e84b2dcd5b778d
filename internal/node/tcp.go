package node

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"cosplit/internal/wire"
)

// The TCP transport is a star: every node dials a central hub (the
// simulator's stand-in for the peer-to-peer gossip layer), announces
// its name, waits for the hub to echo it back (the registration ack),
// and the hub switches envelopes between connections. An envelope is
// a length-prefixed peer name followed by one raw wire frame:
//
//	nameLen(2, big endian) | name | frame
//
// On the way in the name is the destination; on the way out it is the
// source. The hub validates only frame headers (via
// wire.ReadRawFrame), so corrupted payloads pass through to the
// receiving decoder exactly as a faulty network would deliver them.

const maxPeerName = 256

// TCPHub is the central frame switch of the TCP transport.
type TCPHub struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[string]*hubConn
	closed bool
	wg     sync.WaitGroup
}

type hubConn struct {
	name string
	c    net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
}

// ListenTCP starts a hub on addr (use "127.0.0.1:0" for an ephemeral
// test port).
func ListenTCP(addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &TCPHub{ln: ln, conns: make(map[string]*hubConn)}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address, suitable for DialTCP.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Close stops the hub and severs every connection.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := make([]*hubConn, 0, len(h.conns))
	for _, hc := range h.conns {
		conns = append(conns, hc)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, hc := range conns {
		hc.c.Close()
	}
	h.wg.Wait()
	return err
}

func (h *TCPHub) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		// The Add must be ordered against Close's Wait: an accept that
		// lands between the listener close and the wait would otherwise
		// Add after Wait began. Close sets closed under the same lock
		// before it waits, so either we see closed here and drop the
		// conn, or Close sees our Add.
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			c.Close()
			continue
		}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serve(c)
	}
}

func (h *TCPHub) serve(c net.Conn) {
	defer h.wg.Done()
	br := bufio.NewReader(c)
	name, err := readName(br)
	if err != nil {
		c.Close()
		return
	}
	hc := &hubConn{name: name, c: c, bw: bufio.NewWriter(c)}
	h.mu.Lock()
	if h.closed || h.conns[name] != nil {
		h.mu.Unlock()
		c.Close()
		return
	}
	h.conns[name] = hc
	h.mu.Unlock()
	// Ack registration by echoing the name: DialTCP blocks on this, so a
	// returned endpoint is already routable and its peers' first frames
	// cannot race the hub's routing-table insert.
	if err := hc.writeAck(); err != nil {
		h.mu.Lock()
		delete(h.conns, name)
		h.mu.Unlock()
		c.Close()
		return
	}
	defer func() {
		h.mu.Lock()
		if h.conns[name] == hc {
			delete(h.conns, name)
		}
		h.mu.Unlock()
		c.Close()
	}()
	// One relay buffer per connection: writeEnvelope has copied the
	// frame into the destination's writer before the next read
	// overwrites it. Only the hub may do this — a role's endpoint hands
	// every frame out in a slice of its own, which receivers keep.
	var buf []byte
	for {
		to, frame, err := readEnvelope(br, buf[:0])
		if err != nil {
			return
		}
		buf = frame
		h.mu.Lock()
		dst := h.conns[to]
		h.mu.Unlock()
		if dst == nil {
			continue // best-effort: unknown destinations drop
		}
		if err := dst.writeEnvelope(name, frame); err != nil {
			// The destination is dead: drop its routing entry now (not
			// when its read loop notices) so interim senders stop
			// writing into a dead buffered writer. Identity-guarded,
			// like the deferred cleanup — the name may already belong
			// to a reconnected peer.
			dst.c.Close()
			h.mu.Lock()
			if h.conns[dst.name] == dst {
				delete(h.conns, dst.name)
			}
			h.mu.Unlock()
		}
	}
}

func (hc *hubConn) writeAck() error {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	if err := writeName(hc.bw, hc.name); err != nil {
		return err
	}
	return hc.bw.Flush()
}

func (hc *hubConn) writeEnvelope(peer string, frame []byte) error {
	hc.wmu.Lock()
	defer hc.wmu.Unlock()
	if err := writeName(hc.bw, peer); err != nil {
		return err
	}
	if _, err := hc.bw.Write(frame); err != nil {
		return err
	}
	return hc.bw.Flush()
}

func writeName(w io.Writer, name string) error {
	if len(name) == 0 || len(name) > maxPeerName {
		return fmt.Errorf("%w: peer name length %d", ErrUnknownPeer, len(name))
	}
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(name)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, name)
	return err
}

func readName(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	ln := binary.BigEndian.Uint16(n[:])
	if ln == 0 || ln > maxPeerName {
		return "", fmt.Errorf("%w: peer name length %d", wire.ErrDecode, ln)
	}
	b := make([]byte, ln)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readEnvelope reads one envelope, appending its frame to dst (nil for
// a slice of the frame's own).
func readEnvelope(r *bufio.Reader, dst []byte) (peer string, frame []byte, err error) {
	if peer, err = readName(r); err != nil {
		return "", nil, err
	}
	if frame, err = wire.AppendRawFrame(dst, r); err != nil {
		return "", nil, err
	}
	return peer, frame, nil
}

// tcpEndpoint is an Endpoint over one hub connection.
type tcpEndpoint struct {
	name string
	c    net.Conn
	br   *bufio.Reader

	wmu    sync.Mutex
	bw     *bufio.Writer
	closed bool
}

// DialTCP connects to a hub and registers under name.
func DialTCP(addr, name string) (Endpoint, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &tcpEndpoint{name: name, c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if err := writeName(e.bw, name); err != nil {
		c.Close()
		return nil, err
	}
	if err := e.bw.Flush(); err != nil {
		c.Close()
		return nil, err
	}
	// Wait for the hub's registration ack (a name echo): once it
	// arrives, this endpoint is in the routing table and other peers can
	// address it.
	echo, err := readName(e.br)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("hub handshake: %w", ErrTransportClosed)
	}
	if echo != name {
		c.Close()
		return nil, fmt.Errorf("hub handshake: registered as %q, asked for %q: %w", echo, name, ErrTransportClosed)
	}
	return e, nil
}

func (e *tcpEndpoint) Name() string { return e.name }

func (e *tcpEndpoint) Send(to string, frame []byte) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed {
		return fmt.Errorf("send to %q: %w", to, ErrTransportClosed)
	}
	if err := writeName(e.bw, to); err != nil {
		return err
	}
	if _, err := e.bw.Write(frame); err != nil {
		return fmt.Errorf("send to %q: %w: %v", to, ErrTransportClosed, err)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("send to %q: %w: %v", to, ErrTransportClosed, err)
	}
	return nil
}

func (e *tcpEndpoint) Recv() (string, []byte, error) {
	from, frame, err := readEnvelope(e.br, nil)
	if err != nil {
		if err == io.EOF || errors.Is(err, net.ErrClosed) {
			return "", nil, ErrTransportClosed
		}
		if errors.Is(err, wire.ErrDecode) || errors.Is(err, wire.ErrVersionSkew) {
			// A framing error on a stream is unrecoverable: without a
			// trustworthy length field there is no next-frame boundary.
			return "", nil, fmt.Errorf("%w: %v", ErrTransportClosed, err)
		}
		return "", nil, fmt.Errorf("%w: %v", ErrTransportClosed, err)
	}
	return from, frame, nil
}

func (e *tcpEndpoint) Close() error {
	e.wmu.Lock()
	e.closed = true
	e.wmu.Unlock()
	return e.c.Close()
}
