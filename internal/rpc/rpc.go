// Package rpc is the JSON-RPC 2.0 front door of a node cluster. It
// serves HTTP POST requests against a lookup node, so every call
// travels the same path a real client's would: JSON over HTTP to the
// lookup, wire frames from the lookup to the DS committee, and
// FinalBlock broadcasts back.
//
// Transactions cross the RPC boundary in the versioned wire encoding
// (hex-encoded wire.EncodeTx bytes), exactly like Ethereum's
// sendRawTransaction: the binary format stays the single source of
// truth and the JSON layer never re-describes transaction structure.
//
// Methods (all namespaced cosplit_):
//
//	sendRawTransaction ["0x<hex tx>"]        -> {"id": n}
//	getTransactionReceipt [id]               -> receipt | null
//	getBalance ["0x<addr>"]                  -> {"found","balance","nonce"}
//	getState ["0x<addr>", field, key]        -> {"found","value"}
//	chainInfo []                             -> {"epoch","stateRoot"}
package rpc

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"cosplit/internal/chain"
	"cosplit/internal/node"
	"cosplit/internal/wire"
)

// JSON-RPC 2.0 error codes.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	// codeServerError: the request was refused (a query the committee
	// cannot serve, a transaction the lookup cannot encode). Sending the
	// same request again gets the same answer.
	codeServerError = -32000
	// codeUnavailable: no answer came — the request or its response was
	// lost (node.ErrTimeout) or the lookup's transport is closed. The
	// client may retry; a retried submission may find the first attempt
	// was queued after all.
	codeUnavailable = -32001
)

// serverError maps an error from the lookup's round trip to the
// committee onto the two server-side codes.
func serverError(err error) *rpcError {
	code := codeServerError
	if errors.Is(err, node.ErrTimeout) || errors.Is(err, node.ErrTransportClosed) {
		code = codeUnavailable
	}
	return &rpcError{Code: code, Message: err.Error()}
}

func (e *rpcError) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// maxBodyBytes bounds a request body; a raw transaction is well under
// a kilobyte.
const maxBodyBytes = 1 << 20

type rpcRequest struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

type rpcResponse struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

// SubmitResult is the result of sendRawTransaction.
type SubmitResult struct {
	ID uint64 `json:"id"`
}

// ReceiptResult is a committed transaction receipt.
type ReceiptResult struct {
	TxID    uint64   `json:"txId"`
	Success bool     `json:"success"`
	GasUsed uint64   `json:"gasUsed"`
	Error   string   `json:"error,omitempty"`
	Shard   int      `json:"shard"`
	Epoch   uint64   `json:"epoch"`
	Events  []string `json:"events,omitempty"`
}

// BalanceResult is the result of getBalance.
type BalanceResult struct {
	Found   bool   `json:"found"`
	Balance string `json:"balance,omitempty"`
	Nonce   uint64 `json:"nonce,omitempty"`
}

// StateResult is the result of getState; Value is the queried field
// (or map entry) rendered in Scilla literal syntax.
type StateResult struct {
	Found bool   `json:"found"`
	Value string `json:"value,omitempty"`
}

// ChainInfo is the lookup's view of the finalized chain head.
type ChainInfo struct {
	Epoch     uint64 `json:"epoch"`
	StateRoot string `json:"stateRoot"`
}

// Server serves the JSON-RPC API over one lookup node.
type Server struct {
	lk *node.Lookup
}

// NewServer wraps a running lookup node. The caller owns the lookup's
// lifecycle (and the cluster ticking behind it).
func NewServer(lk *node.Lookup) *Server {
	return &Server{lk: lk}
}

// ServeHTTP implements single-request JSON-RPC 2.0 over POST.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req rpcRequest
	resp := rpcResponse{Version: "2.0"}
	if err := json.Unmarshal(body, &req); err != nil {
		resp.Error = &rpcError{Code: codeParse, Message: "parse error: " + err.Error()}
	} else {
		resp.ID = req.ID
		result, rerr := s.dispatch(&req)
		if rerr != nil {
			resp.Error = rerr
		} else {
			resp.Result = result
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

func (s *Server) dispatch(req *rpcRequest) (any, *rpcError) {
	if req.Version != "2.0" {
		return nil, &rpcError{Code: codeInvalidRequest, Message: `jsonrpc must be "2.0"`}
	}
	switch req.Method {
	case "cosplit_sendRawTransaction":
		var raw string
		if err := oneParam(req.Params, &raw); err != nil {
			return nil, err
		}
		return s.sendRawTransaction(raw)
	case "cosplit_getTransactionReceipt":
		var id uint64
		if err := oneParam(req.Params, &id); err != nil {
			return nil, err
		}
		return s.getReceipt(id)
	case "cosplit_getBalance":
		var addr string
		if err := oneParam(req.Params, &addr); err != nil {
			return nil, err
		}
		return s.getBalance(addr)
	case "cosplit_getState":
		var p []string
		if err := json.Unmarshal(req.Params, &p); err != nil || len(p) < 2 || len(p) > 3 {
			return nil, &rpcError{Code: codeInvalidParams, Message: "params: [address, field, key?]"}
		}
		key := ""
		if len(p) == 3 {
			key = p[2]
		}
		return s.getState(p[0], p[1], key)
	case "cosplit_chainInfo":
		epoch, root := s.lk.Chain()
		return &ChainInfo{Epoch: epoch, StateRoot: root}, nil
	default:
		return nil, &rpcError{Code: codeMethodNotFound, Message: "unknown method " + req.Method}
	}
}

func (s *Server) sendRawTransaction(raw string) (any, *rpcError) {
	b, err := hex.DecodeString(strings.TrimPrefix(raw, "0x"))
	if err != nil {
		return nil, &rpcError{Code: codeInvalidParams, Message: "raw tx: " + err.Error()}
	}
	tx, err := wire.DecodeTx(b)
	if err != nil {
		return nil, &rpcError{Code: codeInvalidParams, Message: "raw tx: " + err.Error()}
	}
	id, err := s.lk.SubmitTx(tx)
	if err != nil {
		return nil, serverError(err)
	}
	return &SubmitResult{ID: id}, nil
}

func (s *Server) getReceipt(id uint64) (any, *rpcError) {
	r := s.lk.Receipt(id)
	if r == nil {
		return (*ReceiptResult)(nil), nil // "result": null; an untyped nil would drop the key
	}
	// The lookup files receipts with their events still encoded; this is
	// where they are built, for the one client that asked.
	events, err := wire.ReceiptEvents(r)
	if err != nil {
		return nil, &rpcError{Code: codeServerError, Message: err.Error()}
	}
	res := &ReceiptResult{
		TxID:    r.TxID,
		Success: r.Success,
		GasUsed: r.GasUsed,
		Error:   r.Error,
		Shard:   r.Shard,
		Epoch:   r.Epoch,
	}
	for _, e := range events {
		res.Events = append(res.Events, e.String())
	}
	return res, nil
}

func (s *Server) getBalance(addr string) (any, *rpcError) {
	a, rerr := parseAddr(addr)
	if rerr != nil {
		return nil, rerr
	}
	st, found, err := s.lk.GetAccount(a)
	if err != nil {
		return nil, serverError(err)
	}
	if !found {
		return &BalanceResult{}, nil
	}
	return &BalanceResult{Found: true, Balance: st.Balance.String(), Nonce: st.Nonce}, nil
}

func (s *Server) getState(addr, field, key string) (any, *rpcError) {
	a, rerr := parseAddr(addr)
	if rerr != nil {
		return nil, rerr
	}
	resp, err := s.lk.GetState(a, field, key)
	if err != nil {
		return nil, serverError(err)
	}
	if !resp.Found || resp.Value == nil {
		return &StateResult{}, nil
	}
	return &StateResult{Found: true, Value: resp.Value.String()}, nil
}

func oneParam(params json.RawMessage, out any) *rpcError {
	var arr []json.RawMessage
	if err := json.Unmarshal(params, &arr); err != nil || len(arr) != 1 {
		return &rpcError{Code: codeInvalidParams, Message: "params: exactly one element"}
	}
	if err := json.Unmarshal(arr[0], out); err != nil {
		return &rpcError{Code: codeInvalidParams, Message: "params: " + err.Error()}
	}
	return nil
}

func parseAddr(s string) (chain.Address, *rpcError) {
	b, err := hex.DecodeString(strings.TrimPrefix(s, "0x"))
	if err != nil || len(b) != len(chain.Address{}) {
		return chain.Address{}, &rpcError{Code: codeInvalidParams, Message: fmt.Sprintf("address %q: want 20 hex bytes", s)}
	}
	var a chain.Address
	copy(a[:], b)
	return a, nil
}
