package node

import (
	"sync"
	"time"

	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

// LinkFaults injects transport faults into an endpoint's outbound
// frames: per-frame drop and payload-corruption draws plus an optional
// fixed delivery delay. Draws come from a seeded splitmix64 stream, so
// a link's fault schedule is reproducible for a given seed and send
// sequence. The zero value injects nothing.
type LinkFaults struct {
	// Seed selects the deterministic draw stream. The endpoint's name
	// is mixed in, so the same LinkFaults value on several links (a
	// cluster option applied to every shard node) still gives each link
	// its own schedule.
	Seed uint64
	// Drop is the probability a frame is silently lost in transit.
	Drop float64
	// Corrupt is the probability a frame is delivered with one payload
	// byte flipped (the header survives so framing stays intact on
	// stream transports; the receiver's frame checksum rejects the
	// payload).
	Corrupt float64
	// Delay stalls delivery of every frame by a fixed duration (applied
	// with probability DelayProb; DelayProb 0 with Delay > 0 means
	// always).
	Delay     time.Duration
	DelayProb float64
}

func (f LinkFaults) zero() bool {
	return f.Drop <= 0 && f.Corrupt <= 0 && f.Delay <= 0
}

// linkMetrics are the always-on wire.* transport metrics, shared by
// every instrumented endpoint on the same registry.
type linkMetrics struct {
	framesSent      *obs.Counter
	bytesSent       *obs.Counter
	framesRecv      *obs.Counter
	bytesRecv       *obs.Counter
	framesDropped   *obs.Counter
	framesCorrupted *obs.Counter
	recvErrors      *obs.Counter
	frameBytes      *obs.Histogram
}

func newLinkMetrics(reg *obs.Registry) *linkMetrics {
	return &linkMetrics{
		framesSent:      reg.Counter("wire.frames_sent"),
		bytesSent:       reg.Counter("wire.bytes_sent"),
		framesRecv:      reg.Counter("wire.frames_recv"),
		bytesRecv:       reg.Counter("wire.bytes_recv"),
		framesDropped:   reg.Counter("wire.frames_dropped"),
		framesCorrupted: reg.Counter("wire.frames_corrupted"),
		recvErrors:      reg.Counter("wire.recv_errors"),
		frameBytes:      reg.SizeHistogram("wire.frame_bytes"),
	}
}

// splitmix is the SplitMix64 sequence generator: the counter variant
// of the finalizer that fault.Plan, the throughput harness's fault
// schedule, hashes with.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// link wraps an Endpoint with observability (FrameSent/FrameDropped/
// FrameCorrupted trace events, wire.* metrics) and optional fault
// injection on the send path.
type link struct {
	inner Endpoint
	rec   obs.Recorder
	m     *linkMetrics
	f     LinkFaults

	mu  sync.Mutex
	rng splitmix
}

// Instrument wraps ep so every frame it moves is traced and counted,
// and outbound frames are subject to faults. A nil faults pointer (or
// zero LinkFaults) disables injection; rec may be obs.Nop{}.
func Instrument(ep Endpoint, rec obs.Recorder, reg *obs.Registry, faults *LinkFaults) Endpoint {
	if rec == nil {
		rec = obs.Nop{}
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &link{inner: ep, rec: rec, m: newLinkMetrics(reg)}
	if faults != nil {
		l.f = *faults
		// FNV-1a over the endpoint name decorrelates links sharing a
		// LinkFaults value.
		h := uint64(14695981039346656037)
		for i := 0; i < len(ep.Name()); i++ {
			h = (h ^ uint64(ep.Name()[i])) * 1099511628211
		}
		l.rng = splitmix{s: faults.Seed ^ h}
	}
	return l
}

func (l *link) Name() string { return l.inner.Name() }

// draw makes the (drop, corrupt, delay) verdict for one frame.
func (l *link) draw() (drop, corrupt, delay bool) {
	if l.f.zero() {
		return false, false, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f.Drop > 0 && l.rng.float() < l.f.Drop {
		return true, false, false
	}
	if l.f.Corrupt > 0 && l.rng.float() < l.f.Corrupt {
		corrupt = true
	}
	if l.f.Delay > 0 && (l.f.DelayProb <= 0 || l.rng.float() < l.f.DelayProb) {
		delay = true
	}
	return false, corrupt, delay
}

// corruptByte returns the payload byte index to flip.
func (l *link) corruptByte(payloadLen int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.rng.next() % uint64(payloadLen))
}

func (l *link) Send(to string, frame []byte) error {
	msg := wire.FrameMsgType(frame).String()
	drop, corrupt, delay := l.draw()
	if drop {
		l.m.framesDropped.Inc()
		l.rec.FrameDropped(l.inner.Name(), to, msg, len(frame))
		return nil
	}
	if corrupt && len(frame) > wire.HeaderLen {
		cp := append([]byte(nil), frame...)
		cp[wire.HeaderLen+l.corruptByte(len(cp)-wire.HeaderLen)] ^= 0xff
		frame = cp
		l.m.framesCorrupted.Inc()
		l.rec.FrameCorrupted(l.inner.Name(), to, msg, len(frame))
	}
	if delay {
		time.Sleep(l.f.Delay)
	}
	if err := l.inner.Send(to, frame); err != nil {
		return err
	}
	l.m.framesSent.Inc()
	l.m.bytesSent.Add(int64(len(frame)))
	l.m.frameBytes.Observe(int64(len(frame)))
	l.rec.FrameSent(l.inner.Name(), to, msg, len(frame))
	return nil
}

func (l *link) Recv() (string, []byte, error) {
	from, frame, err := l.inner.Recv()
	if err != nil {
		return from, frame, err
	}
	l.m.framesRecv.Inc()
	l.m.bytesRecv.Add(int64(len(frame)))
	return from, frame, nil
}

func (l *link) Close() error { return l.inner.Close() }
