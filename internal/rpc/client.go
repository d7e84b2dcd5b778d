package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/wire"
)

// Client is a JSON-RPC client for the cosplit_ API; the hammer and
// the tests drive the server through it.
type Client struct {
	url    *url.URL
	urlErr error // a URL that did not parse fails every call
	http   *http.Client
	next   atomic.Uint64 // JSON-RPC request ids
}

// NewClient targets a server URL (e.g. "http://127.0.0.1:8545"),
// query included, over http.DefaultTransport.
func NewClient(rawURL string) *Client {
	return newClient(rawURL, http.DefaultTransport)
}

// newClient targets a server URL over the given transport.
func newClient(rawURL string, transport http.RoundTripper) *Client {
	c := &Client{http: &http.Client{Transport: transport, Timeout: 30 * time.Second}}
	c.url, c.urlErr = url.Parse(rawURL)
	return c
}

// jsonHeader is every request's header; net/http only reads it.
var jsonHeader = http.Header{"Content-Type": contentType}

// call performs one JSON-RPC request, decoding the result into out.
// Each param is a string or a uint64.
func (c *Client) call(method string, params []any, out any) error {
	if c.urlErr != nil {
		return c.urlErr
	}
	body := appendRequest(make([]byte, 0, 128), c.next.Add(1), method, params)
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           c.url,
		Header:        jsonHeader,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		// A request the transport could not write to a pooled
		// connection that had died is sent again on a fresh one.
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}
	hresp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	reply, err := io.ReadAll(hresp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", method, err)
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %s", method, hresp.Status)
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
