package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"cosplit/internal/chain"
	"cosplit/internal/wire"
)

// Client is a JSON-RPC client for the cosplit_ API; the hammer and
// the tests drive the server through it.
type Client struct {
	url  string
	http *http.Client
	next atomic.Uint64 // JSON-RPC request ids
}

// NewClient targets a server URL (e.g. "http://127.0.0.1:8545").
func NewClient(url string) *Client {
	return &Client{url: url, http: &http.Client{Timeout: 30 * time.Second}}
}

// call performs one JSON-RPC request, decoding the result into out.
func (c *Client) call(method string, params []any, out any) error {
	body, err := json.Marshal(map[string]any{
		"jsonrpc": "2.0",
		"id":      c.next.Add(1),
		"method":  method,
		"params":  params,
	})
	if err != nil {
		return err
	}
	hresp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	var resp struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return fmt.Errorf("%s: %w", method, err)
	}
	if resp.Error != nil {
		return fmt.Errorf("%s: %w", method, resp.Error)
	}
	if out == nil || len(resp.Result) == 0 || string(resp.Result) == "null" {
		return nil
	}
	return json.Unmarshal(resp.Result, out)
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
