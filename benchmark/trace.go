package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosplit/internal/node"
	"cosplit/internal/wire"
)

// tracer keeps what a traced run records at each public boundary: the
// HTTP handler in front of the RPC server, every role's endpoint,
// every role's store. Events stay in memory until the run is over;
// spans and per-layer metrics are derived from them afterwards.
type tracer struct {
	// current is the stream index of each client's operation in flight,
	// so a served request can name the client span that caused it.
	current [clients]atomic.Int64

	mu      sync.Mutex
	frames  []frameEvent
	serves  []serveEvent
	commits []commitEvent
}

// frameEvent is one frame crossing a role's endpoint.
type frameEvent struct {
	at    time.Time     // Send: when the call began; Recv: when it returned
	took  time.Duration // Send only
	role  string        // the endpoint's owner
	peer  string
	send  bool
	typ   wire.MsgType
	size  int
	frame []byte // kept only for the types the replay and the submit pairing decode
}

// serveEvent is one request through the RPC server.
type serveEvent struct {
	start  time.Time
	took   time.Duration
	method string
	op     int64 // stream index of the client operation that sent it
}

// commitEvent is one epoch journaled by one role's store.
type commitEvent struct {
	role  string
	epoch uint64
	start time.Time
	took  time.Duration
}

func (t *tracer) commit(e commitEvent) {
	t.mu.Lock()
	t.commits = append(t.commits, e)
	t.mu.Unlock()
}

// tracedEndpoint records every frame a role sends or receives. The
// frame bytes are kept by reference: the transport hands each received
// frame to its reader as a fresh slice and the roles encode a fresh
// slice per send.
type tracedEndpoint struct {
	node.Endpoint
	tr *tracer
}

// keeps reports whether the offline passes decode this frame: the
// committee's inputs and outputs feed the replay, the lookup's submit
// pairs give the wire-level submit round trip.
func keeps(role string, send bool, typ wire.MsgType, peer string) bool {
	switch role {
	case "ds":
		switch typ {
		case wire.MsgSubmit, wire.MsgMicroBlock:
			return !send
		case wire.MsgTxBatch:
			return send
		case wire.MsgFinalBlock:
			return send && peer == "lookup" // one copy of the broadcast
		}
	case "lookup":
		return (send && typ == wire.MsgSubmit) || (!send && typ == wire.MsgSubmitResp)
	}
	return false
}

func (e *tracedEndpoint) record(ev frameEvent, frame []byte) {
	ev.role = e.Name()
	ev.typ = wire.FrameMsgType(frame)
	ev.size = len(frame)
	if keeps(ev.role, ev.send, ev.typ, ev.peer) {
		ev.frame = frame
	}
	e.tr.mu.Lock()
	e.tr.frames = append(e.tr.frames, ev)
	e.tr.mu.Unlock()
}

func (e *tracedEndpoint) Send(to string, frame []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, frame)
	e.record(frameEvent{at: start, took: time.Since(start), peer: to, send: true}, frame)
	return err
}

func (e *tracedEndpoint) Recv() (string, []byte, error) {
	from, frame, err := e.Endpoint.Recv()
	if err == nil {
		e.record(frameEvent{at: time.Now(), peer: from}, frame)
	}
	return from, frame, err
}

// handler times every request the RPC server handles, by method.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		ev := serveEvent{method: rpcMethod(body), op: -1}
		if c, err := strconv.Atoi(r.URL.Query().Get("c")); err == nil && c >= 0 && c < clients {
			ev.op = t.current[c].Load()
		}
		ev.start = time.Now()
		next.ServeHTTP(w, r)
		ev.took = time.Since(ev.start)
		t.mu.Lock()
		t.serves = append(t.serves, ev)
		t.mu.Unlock()
	})
}

// rpcMethod reads the method name out of a JSON-RPC request body
// without parsing it a second time.
func rpcMethod(body []byte) string {
	const key = `"method":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return "unknown"
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return "unknown"
}

// span is one line of the trace file. Spans of one request share an
// id; parent names the span of the same id that caused this one.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Role   string `json:"role,omitempty"`
	Peer   string `json:"peer,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace writes the traced attempt's spans, and the replay's, as
// JSON lines. Times are nanoseconds since the timed window began.
func writeTrace(path string, a *attempt, replayed []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rel := func(t time.Time) int64 { return int64(t.Sub(a.begin)) }
	emit := func(s span) {
		if err == nil {
			err = enc.Encode(&s)
		}
	}

	clientSpan := "client.send_tx"
	if a.sp.kind == epochLoop {
		clientSpan = "client.submit_tx"
	}
	for i, s := range a.samples {
		sent := s.start.Add(s.late)
		emit(span{Name: clientSpan, ID: fmt.Sprintf("tx:%d", i), Start: rel(sent), End: rel(sent.Add(s.rtt))})
		if s.committed {
			// From due time to receipt visible: the span the latency metrics read.
			emit(span{Name: "client.commit", ID: fmt.Sprintf("tx:%d", i), Start: rel(s.start), End: rel(s.start.Add(s.latency))})
		}
	}
	for _, t := range a.ticks {
		emit(span{Name: "ds.tick", ID: fmt.Sprintf("epoch:%d", t.epoch), Role: "ds", Start: rel(t.start), End: rel(t.start.Add(t.took))})
	}
	tr := a.tr
	for _, e := range tr.serves {
		s := span{Name: "rpc.serve:" + e.method, Role: "lookup", Start: rel(e.start), End: rel(e.start.Add(e.took))}
		if e.op >= 0 {
			s.ID, s.Parent = fmt.Sprintf("tx:%d", e.op), clientSpan
		}
		emit(s)
	}
	for _, e := range tr.frames {
		name := "node.recv:"
		if e.send {
			name = "node.send:"
		}
		emit(span{Name: name + e.typ.String(), Role: e.role, Peer: e.peer, Bytes: e.size, Start: rel(e.at), End: rel(e.at.Add(e.took))})
	}
	for _, e := range tr.commits {
		parent := "node.recv:final_block"
		if e.role == "ds" {
			parent = "ds.tick"
		}
		emit(span{Name: "store.commit", ID: fmt.Sprintf("epoch:%d", e.epoch), Parent: parent, Role: e.role, Start: rel(e.start), End: rel(e.start.Add(e.took))})
	}
	for _, s := range replayed {
		emit(s)
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
