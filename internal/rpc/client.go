package rpc

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"syscall"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/wire"
)

// callTimeout bounds every call: a server that accepts and stays
// silent fails the call instead of hanging it.
const callTimeout = 30 * time.Second

// Client is a JSON-RPC client for the cosplit_ API; the hammer, the
// benchmark and the tests drive the server through it. It owns one
// kept-alive HTTP/1.1 connection, dialled on the first call, and makes
// each call on its caller's goroutine. It is safe for concurrent use:
// calls take turns on the connection. A client that is never closed
// holds its socket until it is collected.
type Client struct {
	urlErr  error  // a URL that did not parse, or is not http, fails every call
	addr    string // host:port dialled
	host    string // the Host header
	target  string // the request target: path and query
	timeout time.Duration
	dial    func(network, addr string) (net.Conn, error)

	mu   sync.Mutex
	id   uint64   // the last JSON-RPC request id
	conn net.Conn // nil until dialled, and after a failed call
	br   *bufio.Reader
	body []byte // the request body, reused
	req  []byte // the request head and body, reused
}

// NewClient targets a server URL (e.g. "http://127.0.0.1:8545"),
// query included.
func NewClient(rawURL string) *Client {
	c := &Client{timeout: callTimeout, dial: net.Dial}
	u, err := url.Parse(rawURL)
	switch {
	case err != nil:
		c.urlErr = err
	case u.Scheme != "http":
		c.urlErr = fmt.Errorf("rpc: unsupported scheme %q in %q: only http", u.Scheme, rawURL)
	default:
		c.host = u.Host
		c.addr = u.Host
		if u.Port() == "" {
			c.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		c.target = u.RequestURI()
	}
	return c
}

// Close closes the client's connection. A later call dials again.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drop()
}

// drop closes the connection, if any; the next call dials.
func (c *Client) drop() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

// call performs one JSON-RPC request, decoding the result into out.
// Each param is a string or a uint64.
func (c *Client) call(method string, params []any, out any) error {
	if c.urlErr != nil {
		return c.urlErr
	}
	c.mu.Lock()
	reply, err := c.roundTrip(method, params)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	// A result of null leaves out as it was, unless out points to a
	// pointer, which it sets to nil.
	resp := struct {
		Result any       `json:"result"`
		Error  *rpcError `json:"error"`
	}{Result: out}
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("%s: %w", method, err)
	}
	if resp.Error != nil {
		return fmt.Errorf("%s: %w", method, resp.Error)
	}
	return nil
}

// roundTrip sends one request and returns its reply body; the caller
// holds mu. Sending follows net/http's rule for a POST:
//   - a write that fails on a reused connection is sent once more on a
//     fresh one, since the server cannot have acted on it;
//   - a read method whose reused connection ends before the first
//     reply byte is sent once more on a fresh one;
//   - any other failure drops the connection and ends the call, so a
//     submission is never sent twice.
func (c *Client) roundTrip(method string, params []any) ([]byte, error) {
	c.id++
	c.body = appendRequest(c.body[:0], c.id, method, params)
	c.req = c.appendHead(c.req[:0], len(c.body))
	c.req = append(c.req, c.body...)
	for {
		// A kept connection has answered a call; a failed call drops it.
		reused := c.conn != nil
		if !reused {
			conn, err := c.dial("tcp", c.addr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", method, err)
			}
			c.conn = conn
			c.br = bufio.NewReader(conn)
		}
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		if _, err := c.conn.Write(c.req); err != nil {
			c.drop()
			if reused {
				continue
			}
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		if _, err := c.br.Peek(1); err != nil {
			c.drop()
			if reused && readOnly(method) && connEnded(err) {
				continue
			}
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		hresp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			c.drop()
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		reply, err := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if err != nil {
			c.drop()
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		if hresp.Close {
			c.drop()
		}
		if hresp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %s", method, hresp.Status)
		}
		return reply, nil
	}
}

// appendHead appends the request line and headers of a POST whose
// body is n bytes long.
func (c *Client) appendHead(b []byte, n int) []byte {
	b = append(b, "POST "...)
	b = append(b, c.target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "\r\n\r\n"...)
}

// readOnly reports whether a method only reads, so sending it twice is
// harmless.
func readOnly(method string) bool {
	switch method {
	case "cosplit_getTransactionReceipt", "cosplit_getBalance", "cosplit_getState", "cosplit_chainInfo":
		return true
	}
	return false
}

// connEnded reports whether a read failed because the server had
// closed the connection.
func connEnded(err error) bool {
	return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

// appendRequest appends a request body: the bytes json.Marshal writes
// for the envelope as a map, keys sorted, so the method stays in the
// compact form "method":"<name>".
func appendRequest(b []byte, id uint64, method string, params []any) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"jsonrpc":"2.0","method":`...)
	b = appendString(b, method)
	b = append(b, `,"params":[`...)
	for i, p := range params {
		if i > 0 {
			b = append(b, ',')
		}
		switch p := p.(type) {
		case string:
			b = appendString(b, p)
		case uint64:
			b = strconv.AppendUint(b, p, 10)
		default:
			panic(fmt.Sprintf("rpc: param of type %T", p))
		}
	}
	return append(b, "]}"...)
}

// SendTx wire-encodes the transaction and submits it, returning the
// committee-assigned id.
func (c *Client) SendTx(tx *chain.Tx) (uint64, error) {
	enc, err := wire.EncodeTx(tx)
	if err != nil {
		return 0, err
	}
	var res SubmitResult
	if err := c.call("cosplit_sendRawTransaction", []any{"0x" + hex.EncodeToString(enc)}, &res); err != nil {
		return 0, err
	}
	return res.ID, nil
}

// GetReceipt returns the receipt for a transaction id, or nil if it
// has not committed yet.
func (c *Client) GetReceipt(id uint64) (*ReceiptResult, error) {
	var res *ReceiptResult
	if err := c.call("cosplit_getTransactionReceipt", []any{id}, &res); err != nil {
		return nil, err
	}
	return res, nil
}

// GetBalance queries an account's native balance and nonce.
func (c *Client) GetBalance(addr chain.Address) (*BalanceResult, error) {
	var res BalanceResult
	if err := c.call("cosplit_getBalance", []any{addr.String()}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// GetState queries a contract field, optionally narrowed to one map
// entry by canonical key.
func (c *Client) GetState(addr chain.Address, field, key string) (*StateResult, error) {
	var res StateResult
	params := []any{addr.String(), field}
	if key != "" {
		params = append(params, key)
	}
	if err := c.call("cosplit_getState", params, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ChainInfo returns the finalized chain head as the lookup sees it.
func (c *Client) ChainInfo() (*ChainInfo, error) {
	var res ChainInfo
	if err := c.call("cosplit_chainInfo", []any{}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
