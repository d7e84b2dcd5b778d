package node

import (
	"cosplit/internal/obs"
	"cosplit/internal/wire"
)

// linkMetrics are the always-on wire.* transport metrics, shared by
// every instrumented endpoint on the same registry.
type linkMetrics struct {
	framesSent *obs.Counter
	bytesSent  *obs.Counter
	framesRecv *obs.Counter
	bytesRecv  *obs.Counter
	recvErrors *obs.Counter
	frameBytes *obs.Histogram
}

func newLinkMetrics(reg *obs.Registry) *linkMetrics {
	return &linkMetrics{
		framesSent: reg.Counter("wire.frames_sent"),
		bytesSent:  reg.Counter("wire.bytes_sent"),
		framesRecv: reg.Counter("wire.frames_recv"),
		bytesRecv:  reg.Counter("wire.bytes_recv"),
		recvErrors: reg.Counter("wire.recv_errors"),
		frameBytes: reg.SizeHistogram("wire.frame_bytes"),
	}
}

// link wraps an Endpoint with observability: FrameSent trace events
// and wire.* metrics.
type link struct {
	inner Endpoint
	rec   obs.Recorder
	m     *linkMetrics
}

// Instrument wraps ep so every frame it moves is traced and counted;
// rec may be obs.Nop{} and reg nil (a private registry).
func Instrument(ep Endpoint, rec obs.Recorder, reg *obs.Registry) Endpoint {
	if rec == nil {
		rec = obs.Nop{}
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &link{inner: ep, rec: rec, m: newLinkMetrics(reg)}
}

func (l *link) Name() string { return l.inner.Name() }

func (l *link) Send(to string, frame []byte) error {
	msg := wire.FrameMsgType(frame).String()
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
