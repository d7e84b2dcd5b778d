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
//	getState ["0x<addr>", field, key?]       -> {"found","value"}
//	chainInfo []                             -> {"epoch","stateRoot"}
//
// getState's key is value.CanonicalKey of the map key, a String's with
// its control bytes escaped (value.AppendStrKey); without a key it
// reads the whole field.
package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

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
	// lost (node.ErrTimeout), the lookup's transport is closed, or the
	// committee is not registered with the transport (restarting). The
	// client may retry; a retried submission may find the first attempt
	// was queued after all.
	codeUnavailable = -32001
)

// serverError maps an error from the lookup's round trip to the
// committee onto the two server-side codes.
func serverError(err error) *rpcError {
	code := codeServerError
	if errors.Is(err, node.ErrTimeout) || errors.Is(err, node.ErrTransportClosed) || errors.Is(err, node.ErrUnknownPeer) {
		code = codeUnavailable
	}
	return &rpcError{Code: code, Message: err.Error()}
}

func (e *rpcError) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// maxBodyBytes bounds a request body; a raw transaction is well under
// a kilobyte.
const maxBodyBytes = 1 << 20

// request is a JSON-RPC 2.0 request. Every method takes its params as
// an array, so they are read with the envelope, in one pass.
type request struct {
	Version string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params"`
}

// rpcRequest reads an envelope whose params are of any shape. A body
// that request refuses is read again as one: params that are not an
// array are then the method's to refuse (-32602), as an empty array
// would be, and anything else is a parse error (-32700) whose message
// names this type's fields.
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

// result is a method's answer. appendJSON appends the bytes
// encoding/json writes for it.
type result interface {
	appendJSON(b []byte) []byte
}

// SubmitResult is the result of sendRawTransaction.
type SubmitResult struct {
	ID uint64 `json:"id"`
}

func (r *SubmitResult) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	return append(b, '}')
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

func (r *ReceiptResult) appendJSON(b []byte) []byte {
	enc, _ := json.Marshal(r) // no field of a receipt can fail to encode
	return append(b, enc...)
}

// BalanceResult is the result of getBalance.
type BalanceResult struct {
	Found   bool   `json:"found"`
	Balance string `json:"balance,omitempty"`
	Nonce   uint64 `json:"nonce,omitempty"`
}

func (r *BalanceResult) appendJSON(b []byte) []byte {
	b = append(b, `{"found":`...)
	b = strconv.AppendBool(b, r.Found)
	if r.Balance != "" {
		b = append(b, `,"balance":`...)
		b = appendString(b, r.Balance)
	}
	if r.Nonce != 0 {
		b = append(b, `,"nonce":`...)
		b = strconv.AppendUint(b, r.Nonce, 10)
	}
	return append(b, '}')
}

// StateResult is the result of getState; Value is the queried field
// (or map entry) rendered in Scilla literal syntax.
type StateResult struct {
	Found bool   `json:"found"`
	Value string `json:"value,omitempty"`
}

func (r *StateResult) appendJSON(b []byte) []byte {
	b = append(b, `{"found":`...)
	b = strconv.AppendBool(b, r.Found)
	if r.Value != "" {
		b = append(b, `,"value":`...)
		b = appendString(b, r.Value)
	}
	return append(b, '}')
}

// ChainInfo is the lookup's view of the finalized chain head.
type ChainInfo struct {
	Epoch     uint64 `json:"epoch"`
	StateRoot string `json:"stateRoot"`
}

func (r *ChainInfo) appendJSON(b []byte) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"stateRoot":`...)
	b = appendString(b, r.StateRoot)
	return append(b, '}')
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

// contentType is every reply's Content-Type header value; net/http
// only reads it.
var contentType = []string{"application/json"}

// ServeHTTP implements single-request JSON-RPC 2.0 over POST.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, rerr := decodeRequest(body)
	var res result
	if rerr == nil {
		res, rerr = s.dispatch(&req)
	}
	w.Header()["Content-Type"] = contentType
	w.Write(appendResponse(make([]byte, 0, 128), req.ID, res, rerr))
}

// readBody reads a request body of at most maxBodyBytes (a longer one
// is cut there), into a buffer of its declared length when it has one.
func readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
}

// decodeRequest reads a request envelope, refusing with -32700 a body
// encoding/json cannot read into rpcRequest.
func decodeRequest(body []byte) (request, *rpcError) {
	var req request
	if json.Unmarshal(body, &req) == nil {
		return req, nil
	}
	var loose rpcRequest
	if err := json.Unmarshal(body, &loose); err != nil {
		return request{}, &rpcError{Code: codeParse, Message: "parse error: " + err.Error()}
	}
	return request{Version: loose.Version, ID: loose.ID, Method: loose.Method}, nil
}

// appendResponse appends the reply to a request with the given id:
// the bytes json.NewEncoder(w).Encode writes for the envelope
// {"jsonrpc":"2.0","id":…,"result"|"error":…}, newline included.
func appendResponse(b []byte, id json.RawMessage, res result, rerr *rpcError) []byte {
	b = append(b, `{"jsonrpc":"2.0","id":`...)
	b = appendRawJSON(b, id)
	if rerr != nil {
		b = append(b, `,"error":`...)
		b = rerr.appendJSON(b)
	} else {
		b = append(b, `,"result":`...)
		b = res.appendJSON(b)
	}
	return append(b, "}\n"...)
}

func (e *rpcError) appendJSON(b []byte) []byte {
	b = append(b, `{"code":`...)
	b = strconv.AppendInt(b, int64(e.Code), 10)
	b = append(b, `,"message":`...)
	b = appendString(b, e.Message)
	return append(b, '}')
}

func (s *Server) dispatch(req *request) (result, *rpcError) {
	if req.Version != "2.0" {
		return nil, &rpcError{Code: codeInvalidRequest, Message: `jsonrpc must be "2.0"`}
	}
	switch req.Method {
	case "cosplit_sendRawTransaction":
		hexTx, rerr := oneString(req.Params)
		if rerr != nil {
			return nil, rerr
		}
		return s.sendRawTransaction(hexTx)
	case "cosplit_getTransactionReceipt":
		raw, rerr := oneParam(req.Params)
		if rerr != nil {
			return nil, rerr
		}
		var id uint64
		if err := json.Unmarshal(raw, &id); err != nil {
			return nil, paramError(err)
		}
		return s.getReceipt(id)
	case "cosplit_getBalance":
		addr, rerr := oneString(req.Params)
		if rerr != nil {
			return nil, rerr
		}
		return s.getBalance(addr)
	case "cosplit_getState":
		p, ok := stateParams(req.Params)
		if !ok {
			return nil, &rpcError{Code: codeInvalidParams, Message: "params: [address, field, key?]"}
		}
		return s.getState(p[0], string(p[1]), string(p[2]))
	case "cosplit_chainInfo":
		epoch, root := s.lk.Chain()
		return &ChainInfo{Epoch: epoch, StateRoot: root}, nil
	default:
		return nil, &rpcError{Code: codeMethodNotFound, Message: "unknown method " + req.Method}
	}
}

// sendRawTransaction decodes hexTx in place, overwriting it.
func (s *Server) sendRawTransaction(hexTx []byte) (result, *rpcError) {
	hexTx = bytes.TrimPrefix(hexTx, []byte("0x"))
	n, err := hex.Decode(hexTx, hexTx)
	if err != nil {
		return nil, &rpcError{Code: codeInvalidParams, Message: "raw tx: " + err.Error()}
	}
	tx, err := wire.DecodeTx(hexTx[:n])
	if err != nil {
		return nil, &rpcError{Code: codeInvalidParams, Message: "raw tx: " + err.Error()}
	}
	id, err := s.lk.SubmitTx(tx)
	if err != nil {
		return nil, serverError(err)
	}
	return &SubmitResult{ID: id}, nil
}

func (s *Server) getReceipt(id uint64) (result, *rpcError) {
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

func (s *Server) getBalance(addr []byte) (result, *rpcError) {
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

func (s *Server) getState(addr []byte, field, key string) (result, *rpcError) {
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

// oneParam returns the one element of params.
func oneParam(params []json.RawMessage) (json.RawMessage, *rpcError) {
	if len(params) != 1 {
		return nil, &rpcError{Code: codeInvalidParams, Message: "params: exactly one element"}
	}
	return params[0], nil
}

// oneString returns the string held by the one element of params.
func oneString(params []json.RawMessage) ([]byte, *rpcError) {
	raw, rerr := oneParam(params)
	if rerr != nil {
		return nil, rerr
	}
	s, err := stringParam(raw)
	if err != nil {
		return nil, paramError(err)
	}
	return s, nil
}

// stateParams reads getState's params, [address, field, key?].
func stateParams(params []json.RawMessage) (p [3][]byte, ok bool) {
	if len(params) < 2 || len(params) > 3 {
		return p, false
	}
	for i, raw := range params {
		var err error
		if p[i], err = stringParam(raw); err != nil {
			return p, false
		}
	}
	return p, true
}

func paramError(err error) *rpcError {
	return &rpcError{Code: codeInvalidParams, Message: "params: " + err.Error()}
}

func parseAddr(s []byte) (chain.Address, *rpcError) {
	var a chain.Address
	if h := bytes.TrimPrefix(s, []byte("0x")); len(h) == hex.EncodedLen(len(a)) {
		if _, err := hex.Decode(a[:], h); err == nil {
			return a, nil
		}
	}
	return chain.Address{}, &rpcError{Code: codeInvalidParams, Message: fmt.Sprintf("address %q: want 20 hex bytes", s)}
}
