package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"cosplit/internal/node"
	"cosplit/internal/scilla/value"
	"cosplit/internal/shard"
	"cosplit/internal/wire"
	"cosplit/internal/workload"
)

// rpcResponse is the reply envelope as encoding/json writes it: the
// reference appendResponse is held to, byte for byte.
type rpcResponse struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

func encoderReply(t *testing.T, id json.RawMessage, res result, rerr *rpcError) []byte {
	resp := rpcResponse{Version: "2.0", ID: id, Error: rerr}
	if rerr == nil {
		resp.Result = res
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeValue reads a JSON body into generic values, numbers kept as
// written.
func decodeValue(t *testing.T, body []byte) any {
	d := json.NewDecoder(bytes.NewReader(body))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatalf("%q: %v", body, err)
	}
	return v
}

// FuzzRPCCodec holds the hand-coded envelope at both ends to
// encoding/json:
//   - the server reads any body as encoding/json reads it into the
//     envelope with params of any shape, then each param as an array
//     element, then each element as a string; or refuses it with the
//     same code and message;
//   - every reply, result or error, is the bytes json.NewEncoder
//     writes for it;
//   - the client's request body decodes under encoding/json to what
//     json.Marshal's encoding of the envelope as a map decodes to, and
//     keeps the compact "method":"<name>" form.
func FuzzRPCCodec(f *testing.F) {
	w := workload.FTTransfer()
	w.Users = 4
	env, err := workload.Provision(w, true, shard.WithShards(3))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := wire.EncodeTx(w.Next(env))
	if err != nil {
		f.Fatal(err)
	}
	user, contract := env.Users[0].String(), env.Contract.String()
	rawTx := "0x" + hex.EncodeToString(raw)
	ctrlKey := value.CanonicalKey(value.Str{S: "e\x01\x1f"}) // as in TestControlByteKeys
	for _, s := range []struct {
		method  string
		params  []any
		a, b, c string
	}{
		{"cosplit_sendRawTransaction", []any{rawTx}, "1000000000", "", env.Net.StateRoot()},
		{"cosplit_getTransactionReceipt", []any{uint64(7)}, "", "Transfer", `{_eventname : "TransferSuccess"; sender : ` + user + `}`},
		{"cosplit_getBalance", []any{user}, "999999990", "", ""},
		{"cosplit_getState", []any{contract, "balances", value.CanonicalKey(env.Users[1].Value())}, "", "Uint128 1000", ""},
		{"cosplit_getState", []any{contract, "pairs", ctrlKey}, "", `Emp (String) (Uint128)`, ctrlKey},
		{"cosplit_chainInfo", []any{}, `rpc error <&> "quoted" \ é`, "\x00\x1f\x7f ", "\xff\xfe"},
	} {
		f.Add(appendRequest(nil, 3, s.method, s.params), s.a, s.b, s.c, uint64(len(s.params)))
	}
	f.Add([]byte(`{"jsonrpc":"2.0","id":[1, "<a>"],"method":"cosplit_getBalance","params":{"x":1}}`), "", "", "", uint64(0))
	f.Add([]byte(`{"jsonrpc":"2.0","id":[1, -2.5e3],"method":"cosplit_chainInfo","params":[]}`), "", "", "", uint64(0))
	f.Add([]byte(`{"jsonrpc":"2.0","method":5,"params":7}`), "", "", "", uint64(0))

	f.Fuzz(func(t *testing.T, body []byte, a, b, c string, n uint64) {
		// The server's read of the body.
		req, rerr := decodeRequest(body)
		var ref rpcRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			if rerr == nil || rerr.Code != codeParse || rerr.Message != "parse error: "+err.Error() {
				t.Fatalf("%q: decoded as %+v, %+v; encoding/json refuses it: %v", body, req, rerr, err)
			}
		} else {
			if rerr != nil {
				t.Fatalf("%q: refused with %+v; encoding/json reads %+v", body, rerr, ref)
			}
			if req.Version != ref.Version || req.Method != ref.Method || !bytes.Equal(req.ID, ref.ID) {
				t.Fatalf("%q: read %+v, encoding/json reads %+v", body, req, ref)
			}
			// Params that are not an array are refused as an empty
			// array is: every method's refusal is the same for both.
			var params []json.RawMessage
			if json.Unmarshal(ref.Params, &params) != nil {
				params = nil
			}
			if len(req.Params) != len(params) {
				t.Fatalf("%q: params %q, encoding/json reads %q", body, req.Params, params)
			}
			for i, p := range params {
				if !bytes.Equal(req.Params[i], p) {
					t.Fatalf("%q: param %d is %q, encoding/json reads %q", body, i, req.Params[i], p)
				}
				got, gerr := stringParam(p)
				var want string
				werr := json.Unmarshal(p, &want)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) || string(got) != want {
					t.Fatalf("param %q: read %q, %v; encoding/json reads %q, %v", p, got, gerr, want, werr)
				}
			}
		}

		// Every reply to that request's id.
		for _, res := range []result{
			&SubmitResult{ID: n},
			&BalanceResult{Found: n%2 == 1, Balance: a, Nonce: n},
			&BalanceResult{},
			&StateResult{Found: true, Value: b},
			&StateResult{},
			&ChainInfo{Epoch: n, StateRoot: c},
			&ReceiptResult{TxID: n, Success: n%2 == 0, GasUsed: n, Error: a, Shard: int(n % 5), Epoch: n, Events: []string{b, c}},
			(*ReceiptResult)(nil),
		} {
			if got, want := appendResponse(nil, req.ID, res, nil), encoderReply(t, req.ID, res, nil); !bytes.Equal(got, want) {
				t.Fatalf("reply %#v: %q, encoding/json writes %q", res, got, want)
			}
		}
		for _, e := range []*rpcError{{Code: int(int64(n)), Message: a}, serverError(fmt.Errorf("submit: %w", node.ErrTimeout))} {
			if got, want := appendResponse(nil, req.ID, nil, e), encoderReply(t, req.ID, nil, e); !bytes.Equal(got, want) {
				t.Fatalf("error %+v: %q, encoding/json writes %q", e, got, want)
			}
		}

		// The client's request bodies.
		for _, method := range []string{"cosplit_getState", a} {
			for _, params := range [][]any{{a, b, c}, {n}, {}} {
				got := appendRequest(nil, n, method, params)
				want, err := json.Marshal(map[string]any{"jsonrpc": "2.0", "id": n, "method": method, "params": params})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(decodeValue(t, got), decodeValue(t, want)) {
					t.Fatalf("request %q, json.Marshal writes %q", got, want)
				}
				if plain(method) && !bytes.Contains(got, []byte(`"method":"`+method+`"`)) {
					t.Fatalf("request %q: no compact method", got)
				}
			}
		}
	})
}
