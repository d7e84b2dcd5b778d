package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosplit/internal/node"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// startCluster brings up a channel-transport cluster with a block
// producer and a JSON-RPC server in front of its lookup node.
func startCluster(t *testing.T, w *workload.Workload) (*node.Cluster, *httptest.Server) {
	t.Helper()
	genesis := func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	}
	cluster, err := node.NewCluster(genesis)
	if err != nil {
		t.Fatal(err)
	}
	stop := cluster.DS.Produce(10*time.Millisecond, func(res node.TickResult) {
		if res.Err != nil {
			t.Errorf("produce: %v", res.Err)
		}
	})
	srv := httptest.NewServer(NewServer(cluster.Lookup))
	t.Cleanup(func() {
		srv.Close()
		stop()
		cluster.Close()
	})
	return cluster, srv
}

func TestRPCRoundTrip(t *testing.T) {
	w := workload.FTTransfer()
	w.Users = 40
	envSrc, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startCluster(t, w)
	c := NewClient(srv.URL)

	// Submit through the front door and wait for the receipt.
	tx := w.Next(envSrc)
	id, err := c.SendTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	var rc *ReceiptResult
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if rc, err = c.GetReceipt(id); err != nil {
			t.Fatal(err)
		}
		if rc != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rc == nil {
		t.Fatalf("tx %d: no receipt", id)
	}
	if !rc.Success || rc.TxID != id {
		t.Fatalf("receipt: %+v", rc)
	}

	// Reads agree with the canonical chain.
	info, err := c.ChainInfo()
	if err != nil || info.Epoch == 0 || info.StateRoot == "" {
		t.Fatalf("chainInfo: %+v, %v", info, err)
	}
	bal, err := c.GetBalance(envSrc.Users[0])
	if err != nil || !bal.Found || bal.Balance == "" {
		t.Fatalf("getBalance: %+v, %v", bal, err)
	}
	st, err := c.GetState(envSrc.Contract, "balances", "")
	if err != nil || !st.Found || st.Value == "" {
		t.Fatalf("getState: %+v, %v", st, err)
	}
	if _, err := c.GetBalance(envSrc.Contract); err != nil {
		t.Fatalf("getBalance(contract): %v", err)
	}
}

func TestRPCErrors(t *testing.T) {
	w := workload.FTTransfer()
	w.Users = 10
	cluster, srv := startCluster(t, w)

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	rpcCode := func(out map[string]any) float64 {
		t.Helper()
		e, ok := out["error"].(map[string]any)
		if !ok {
			t.Fatalf("no error in %v", out)
		}
		return e["code"].(float64)
	}

	if c := rpcCode(post(`{`)); c != codeParse {
		t.Errorf("parse error code %v", c)
	}
	if c := rpcCode(post(`{"jsonrpc":"1.0","id":1,"method":"cosplit_chainInfo","params":[]}`)); c != codeInvalidRequest {
		t.Errorf("bad version code %v", c)
	}
	if c := rpcCode(post(`{"jsonrpc":"2.0","id":1,"method":"cosplit_nope","params":[]}`)); c != codeMethodNotFound {
		t.Errorf("unknown method code %v", c)
	}
	if c := rpcCode(post(`{"jsonrpc":"2.0","id":1,"method":"cosplit_sendRawTransaction","params":["0xzz"]}`)); c != codeInvalidParams {
		t.Errorf("bad hex code %v", c)
	}
	if c := rpcCode(post(`{"jsonrpc":"2.0","id":1,"method":"cosplit_getBalance","params":["0x1234"]}`)); c != codeInvalidParams {
		t.Errorf("short address code %v", c)
	}

	// The committee answering "no" and nobody answering are different
	// codes: a refusal repeats, a lost round trip may be retried.
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	notAMap := fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"cosplit_getState","params":[%q,"total_supply","k"]}`, env.Contract)
	if c := rpcCode(post(notAMap)); c != codeServerError {
		t.Errorf("refused query code %v, want %d", c, codeServerError)
	}
	cluster.Lookup.Close()
	raw, err := wire.EncodeTx(w.Next(env))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"submit": fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"cosplit_sendRawTransaction","params":["0x%x"]}`, raw),
		"query":  notAMap,
	} {
		if c := rpcCode(post(body)); c != codeUnavailable {
			t.Errorf("%s on a closed lookup: code %v, want %d", name, c, codeUnavailable)
		}
	}

	// GET is rejected outright.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}

	// A client call answered by anything but 200 fails with the
	// status; the URL's query reaches the server.
	var query atomic.Value
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		query.Store(r.URL.RawQuery)
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	if _, err := NewClient(busy.URL + "/?c=3").ChainInfo(); err == nil || err.Error() != "cosplit_chainInfo: HTTP 503 Service Unavailable" {
		t.Errorf("503 reply: %v", err)
	}
	if q := query.Load(); q != "c=3" {
		t.Errorf("query %q reached the server, want c=3", q)
	}
}

// TestHammerClosedLoop runs the hammer against a server that counts
// the connections it accepts: each worker dials once and keeps its
// connection for the run.
func TestHammerClosedLoop(t *testing.T) {
	const workers = 8
	w := workload.FTTransfer()
	w.Users = 40
	cluster, _ := startCluster(t, w)
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(NewServer(cluster.Lookup))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	next, err := WorkloadStream(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunHammer(HammerConfig{
		URL:     srv.URL,
		Workers: workers,
		Total:   120,
		Next:    next,
		Poll:    2 * time.Millisecond,
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Workers submit concurrently, so same-sender transfers can commit
	// out of stream order and a few may fail on transiently overdrawn
	// balances — but every submission must come back with a receipt.
	if rep.Committed+rep.Failed != 120 || rep.Lost != 0 || rep.Rejected != 0 {
		t.Fatalf("hammer report: %+v", rep)
	}
	if rep.Committed < 110 {
		t.Fatalf("only %d of 120 committed successfully: %+v", rep.Committed, rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Fatalf("latency percentiles inconsistent: %+v", rep)
	}
	if n := conns.Load(); n > workers {
		t.Errorf("%d connections for %d workers", n, workers)
	}
	var buf bytes.Buffer
	PrintHammer(&buf, rep)
	if !strings.Contains(buf.String(), "p99") {
		t.Fatalf("PrintHammer output: %q", buf.String())
	}
}

// TestServerErrorCodes pins the two server-side codes: no answer from
// the committee (timeout, closed transport, committee not registered)
// is -32001, anything the committee said is -32000.
func TestServerErrorCodes(t *testing.T) {
	for _, c := range []struct {
		err  error
		code int
	}{
		{fmt.Errorf("submit: %w", node.ErrTimeout), -32001},
		{fmt.Errorf("state query: %w", node.ErrTimeout), -32001},
		{node.ErrTransportClosed, -32001},
		{fmt.Errorf("send to %q: %w", "ds", node.ErrTransportClosed), -32001},
		{fmt.Errorf("%w: %q", node.ErrUnknownPeer, "ds"), -32001},
		{fmt.Errorf("%w: contract deployment (deployments are genesis-local)", wire.ErrUnencodable), -32000},
		{errors.New("state query: field total_supply is not a map"), -32000},
	} {
		if got := serverError(c.err); got.Code != c.code || got.Message != c.err.Error() {
			t.Errorf("%v: code %d message %q, want %d", c.err, got.Code, got.Message, c.code)
		}
	}
	// The client hands the code on, under the text it always printed.
	var re *rpcError
	err := fmt.Errorf("m: %w", serverError(node.ErrTimeout))
	if !errors.As(err, &re) || re.Code != codeUnavailable || err.Error() != "m: rpc error -32001: node: request timed out" {
		t.Errorf("client error %q, code %+v", err, re)
	}
}

// TestHammerCountsUnansweredAsLost: a submission the server could not
// get answered (-32001) is lost, not rejected; one it refused is
// rejected.
func TestHammerCountsUnansweredAsLost(t *testing.T) {
	w := workload.FTTransfer()
	w.Users = 40
	cluster, _ := startCluster(t, w)
	real := NewServer(cluster.Lookup)
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if bytes.Contains(body, []byte("cosplit_sendRawTransaction")) {
			if n := submits.Add(1); n <= 2 {
				code := map[int64]int{1: codeUnavailable, 2: codeServerError}[n]
				fmt.Fprintf(rw, `{"jsonrpc":"2.0","id":1,"error":{"code":%d,"message":"injected"}}`, code)
				return
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		real.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	next, err := WorkloadStream(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunHammer(HammerConfig{URL: srv.URL, Workers: 1, Total: 20, Next: next, Poll: 2 * time.Millisecond, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 1 || rep.Rejected != 1 || rep.Committed+rep.Failed != 18 {
		t.Fatalf("hammer report: %+v, want 1 lost, 1 rejected, 18 with receipts", rep)
	}
}

// BenchmarkRPCServe times the server alone: one request per op through
// Server.ServeHTTP into a recorder, over a ChanNetwork cluster that
// produces no blocks (submissions queue at the committee), by method.
func BenchmarkRPCServe(b *testing.B) {
	w := workload.FTTransfer()
	w.Users = 40
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := node.NewCluster(func() (*shard.Network, error) {
		env, err := workload.Provision(w, true, shard.WithShards(3))
		if err != nil {
			return nil, err
		}
		return env.Net, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	srv := NewServer(cluster.Lookup)
	raw, err := wire.EncodeTx(w.Next(env))
	if err != nil {
		b.Fatal(err)
	}
	user := env.Users[0]
	for _, m := range []struct {
		name   string
		params []any
	}{
		{"sendRawTransaction", []any{fmt.Sprintf("0x%x", raw)}},
		{"getBalance", []any{user.String()}},
		{"getState", []any{env.Contract.String(), "balances", value.CanonicalKey(user.Value())}},
	} {
		body, err := json.Marshal(map[string]any{"jsonrpc": "2.0", "id": 1, "method": "cosplit_" + m.name, "params": m.params})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodPost, "/", nil)
			req.ContentLength = int64(len(body))
			var rd rewinder
			rec := httptest.NewRecorder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				req.Body = &rd
				rec.Body.Reset()
				srv.ServeHTTP(rec, req)
			}
			if bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
				b.Fatalf("reply %s", rec.Body)
			}
		})
	}
}

// rewinder is a request body the benchmark rewinds without allocating.
type rewinder struct{ bytes.Reader }

func (*rewinder) Close() error { return nil }
