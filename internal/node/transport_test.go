package node

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

func TestChanNetworkDelivers(t *testing.T) {
	n := NewChanNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	frame := wire.EncodeFrame(wire.MsgSubmitResp, []byte{1, 2, 3})
	if err := a.Send("b", frame); err != nil {
		t.Fatal(err)
	}
	from, got, err := b.Recv()
	if err != nil || from != "a" || !bytes.Equal(got, frame) {
		t.Fatalf("Recv = %q, %x, %v", from, got, err)
	}
	if err := a.Send("nobody", frame); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown peer: %v, want ErrUnknownPeer", err)
	}
}

func TestChanNetworkCloseDrainsQueued(t *testing.T) {
	n := NewChanNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	f1 := wire.EncodeFrame(wire.MsgTx, []byte{1})
	f2 := wire.EncodeFrame(wire.MsgTx, []byte{2})
	if err := a.Send("b", f1); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", f2); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// Frames queued before the close still drain, then the endpoint
	// reports closure.
	for _, want := range [][]byte{f1, f2} {
		if _, got, err := b.Recv(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("drain after close: %x, %v", got, err)
		}
	}
	if _, _, err := b.Recv(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("recv after drain: %v, want ErrTransportClosed", err)
	}
	if err := a.Send("b", f1); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("send to closed: %v, want ErrTransportClosed", err)
	}
}

func TestChanNetworkCloseUnblocksRecv(t *testing.T) {
	n := NewChanNetwork()
	a := n.Endpoint("a")
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("recv unblocked with %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// sinkEndpoint records sends for the link tests.
type sinkEndpoint struct {
	mu     sync.Mutex
	frames [][]byte
}

func (s *sinkEndpoint) Name() string { return "sink" }
func (s *sinkEndpoint) Send(to string, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, append([]byte(nil), frame...))
	return nil
}
func (s *sinkEndpoint) Recv() (string, []byte, error) { return "", nil, ErrTransportClosed }
func (s *sinkEndpoint) Close() error                  { return nil }

func (s *sinkEndpoint) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func TestLinkEmitsFrameEvents(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	sink := &sinkEndpoint{}
	ep := Instrument(sink, j, nil)
	ep.Send("peer", wire.EncodeFrame(wire.MsgMicroBlock, []byte{1}))
	j.Close()
	if sink.count() != 1 ||
		!bytes.Contains(buf.Bytes(), []byte(`"event":"frame_sent"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"msg":"micro_block"`)) {
		t.Fatalf("journal missing frame_sent event:\n%s", buf.String())
	}
}

// TestTCPHubSwitchesFrames checks the TCP transport end to end: frames
// and replies cross between two registered endpoints, a corrupted
// payload arrives as sent, and once two endpoints are linked the hub
// can go away — it is a directory, and no frame passes through it.
func TestTCPHubSwitchesFrames(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialTCP(hub.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	frame := wire.EncodeFrame(wire.MsgStateQuery, bytes.Repeat([]byte{9}, 64))
	if err := a.Send("b", frame); err != nil {
		t.Fatal(err)
	}
	from, got, err := b.Recv()
	if err != nil || from != "a" || !bytes.Equal(got, frame) {
		t.Fatalf("Recv = %q, %d bytes, %v", from, len(got), err)
	}
	// Reply path.
	if err := b.Send("a", frame); err != nil {
		t.Fatal(err)
	}
	if from, _, err = a.Recv(); err != nil || from != "b" {
		t.Fatalf("reply Recv = %q, %v", from, err)
	}
	// Both directions are linked: frames keep flowing without the hub.
	hub.Close()
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if err := a.Send("b", bad); err != nil {
		t.Fatal(err)
	}
	if _, got, err = b.Recv(); err != nil || !bytes.Equal(got, bad) {
		t.Fatalf("corrupted frame did not pass through: %v", err)
	}
	if err := b.Send("a", frame); err != nil {
		t.Fatal(err)
	}
	if from, got, err = a.Recv(); err != nil || from != "b" || !bytes.Equal(got, frame) {
		t.Fatalf("reply after hub close = %q, %v", from, err)
	}
}

// transports are the two Endpoint implementations under one contract:
// each entry returns a function registering endpoints by name.
var transports = []struct {
	name string
	open func(t testing.TB) func(name string) Endpoint
}{
	{"chan", func(t testing.TB) func(string) Endpoint {
		n := NewChanNetwork()
		t.Cleanup(func() { n.Close() })
		return n.Endpoint
	}},
	{"tcp", func(t testing.TB) func(string) Endpoint {
		hub, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hub.Close() })
		return func(name string) Endpoint {
			ep, err := DialTCP(hub.Addr(), name)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			return ep
		}
	}},
}

// queued reports how many frames wait in ep's inbound queue.
func queued(ep Endpoint) int {
	var box *mailbox
	switch e := ep.(type) {
	case *chanEndpoint:
		box = &e.box
	case *tcpEndpoint:
		box = &e.box
	}
	box.mu.Lock()
	defer box.mu.Unlock()
	return len(box.queue)
}

// seqFrame is a MsgTx frame whose payload is seq, big endian.
func seqFrame(seq uint64) []byte {
	return wire.EncodeFrame(wire.MsgTx, binary.BigEndian.AppendUint64(nil, seq))
}

// TestEndpointContract holds both transports to the Endpoint contract
// of transport.go.
func TestEndpointContract(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Run("FIFOPerPair", func(t *testing.T) {
				const senders, frames = 4, 1000
				ep := tr.open(t)
				rx := ep("rx")
				var wg sync.WaitGroup
				for i := range senders {
					tx := ep(fmt.Sprintf("tx-%d", i))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for seq := range uint64(frames) {
							if err := tx.Send("rx", seqFrame(seq)); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				next := make(map[string]uint64)
				for range senders * frames {
					from, frame, err := rx.Recv()
					if err != nil {
						t.Fatal(err)
					}
					_, payload, _, err := wire.DecodeFrame(frame)
					if err != nil {
						t.Fatal(err)
					}
					if seq := binary.BigEndian.Uint64(payload); seq != next[from] {
						t.Fatalf("from %s: frame %d, want %d", from, seq, next[from])
					}
					next[from]++
				}
				wg.Wait()
			})
			t.Run("UnknownPeer", func(t *testing.T) {
				a := tr.open(t)("a")
				if err := a.Send("nobody", seqFrame(0)); !errors.Is(err, ErrUnknownPeer) {
					t.Fatalf("send to unregistered name: %v, want ErrUnknownPeer", err)
				}
			})
			t.Run("CorruptPayloadCrosses", func(t *testing.T) {
				ep := tr.open(t)
				a, b := ep("a"), ep("b")
				bad := wire.EncodeFrame(wire.MsgMicroBlock, bytes.Repeat([]byte{5}, 32))
				bad[len(bad)-3] ^= 0x10
				if err := a.Send("b", bad); err != nil {
					t.Fatal(err)
				}
				if _, got, err := b.Recv(); err != nil || !bytes.Equal(got, bad) {
					t.Fatalf("flipped-byte frame arrived as %x, %v", got, err)
				}
			})
			t.Run("CloseDrains", func(t *testing.T) {
				ep := tr.open(t)
				a, b := ep("a"), ep("b")
				want := [][]byte{seqFrame(1), seqFrame(2), seqFrame(3)}
				for _, f := range want {
					if err := a.Send("b", f); err != nil {
						t.Fatal(err)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for queued(b) < len(want) {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d frames queued", queued(b), len(want))
					}
					time.Sleep(time.Millisecond)
				}
				b.Close()
				for _, f := range want {
					if _, got, err := b.Recv(); err != nil || !bytes.Equal(got, f) {
						t.Fatalf("drain after close: %x, %v", got, err)
					}
				}
				if _, _, err := b.Recv(); !errors.Is(err, ErrTransportClosed) {
					t.Fatalf("recv after drain: %v, want ErrTransportClosed", err)
				}
			})
			t.Run("FramesOwnTheirBytes", func(t *testing.T) {
				ep := tr.open(t)
				a, b := ep("a"), ep("b")
				orig := wire.EncodeFrame(wire.MsgTx, bytes.Repeat([]byte{7}, 48))
				buf := append([]byte(nil), orig...)
				for range 3 {
					if err := a.Send("b", buf); err != nil {
						t.Fatal(err)
					}
					// The sender may reuse its buffer once Send returns.
					clear(buf[wire.HeaderLen:])
					copy(buf, orig)
				}
				var got [3][]byte
				for i := range got {
					var err error
					if _, got[i], err = b.Recv(); err != nil {
						t.Fatal(err)
					}
				}
				clear(got[1])
				for _, i := range []int{0, 2} {
					if !bytes.Equal(got[i], orig) {
						t.Fatalf("frame %d changed with frame 1: %x", i, got[i])
					}
				}
			})
		})
	}
}

// TestTCPRestartSameName replaces endpoint b with a new one on a new
// port under the same name: a, which holds a link to the old b, must
// reach the new one within a bounded number of sends — the unit-level
// twin of a SIGKILLed role restarting.
func TestTCPRestartSameName(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	old, err := DialTCP(hub.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", seqFrame(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := old.Recv(); err != nil {
		t.Fatal(err)
	}
	old.Close()

	// The hub refuses the name until it has seen the old registration
	// close, as it refuses any duplicate.
	var b Endpoint
	for deadline := time.Now().Add(5 * time.Second); ; {
		if b, err = DialTCP(hub.Addr(), "b"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-register b: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer b.Close()
	if b.(*tcpEndpoint).ln.Addr().String() == old.(*tcpEndpoint).ln.Addr().String() {
		t.Fatal("new b listens on the old b's address")
	}
	got := make(chan []byte, 8)
	go func() {
		for {
			_, frame, err := b.Recv()
			if err != nil {
				return
			}
			got <- frame
		}
	}()
	const maxSends = 3
	for seq := uint64(1); seq <= maxSends; seq++ {
		a.Send("b", seqFrame(seq))
		select {
		case <-got:
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
	t.Fatalf("a did not reach the restarted b in %d sends", maxSends)
}

// TestTCPHandshakeDeadline points both handshakes at a listener that
// accepts and stays silent: DialTCP's registration and a send's peer
// hello must each fail within the handshake timeout, not hang.
func TestTCPHandshakeDeadline(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	bounded := func(what string, f func() error) {
		t.Helper()
		start := time.Now()
		err := f()
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("%s: %v, want ErrTransportClosed", what, err)
		}
		if took := time.Since(start); took > 10*handshakeTimeout {
			t.Fatalf("%s took %v", what, took)
		}
	}
	bounded("registration with a silent hub", func() error {
		_, err := DialTCP(silent.Addr().String(), "a")
		return err
	})

	// Register a peer whose listen address is the silent listener.
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(appendName(appendName(nil, "ghost"), silent.Addr().String())); err != nil {
		t.Fatal(err)
	}
	if echo, err := readName(bufio.NewReader(c)); err != nil || echo != "ghost" {
		t.Fatalf("register ghost: %q, %v", echo, err)
	}
	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bounded("hello with a silent peer", func() error { return a.Send("ghost", seqFrame(0)) })
}

// BenchmarkTCPRoundTrip times one request/reply between two DialTCP
// endpoints: a 200-byte frame out, a 20-byte frame back.
func BenchmarkTCPRoundTrip(b *testing.B) {
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	client, err := DialTCP(hub.Addr(), "client")
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	server, err := DialTCP(hub.Addr(), "server")
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	req := wire.EncodeFrame(wire.MsgSubmit, make([]byte, 200-wire.HeaderLen))
	resp := wire.EncodeFrame(wire.MsgSubmitResp, make([]byte, 20-wire.HeaderLen))
	go func() {
		for {
			from, _, err := server.Recv()
			if err != nil {
				return
			}
			server.Send(from, resp)
		}
	}()
	roundTrip := func() {
		if err := client.Send("server", req); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // link both directions before timing
	b.ResetTimer()
	for range b.N {
		roundTrip()
	}
	b.StopTimer() // the deferred closes are not round trips
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/rtt")
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialTCP(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("recv unblocked with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}
