package eval_test

import (
	"math/big"
	"testing"

	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

func addr(b byte) value.ByStr {
	bs := make([]byte, 20)
	bs[19] = b
	return value.ByStr{Ty: ast.TyByStr20, B: bs}
}

func u128(v uint64) value.Int { return value.Uint128(v) }

func newFT(t *testing.T, owner value.ByStr, supply uint64) (*eval.Interpreter, *eval.MemState) {
	t.Helper()
	chk := contracts.MustParse("FungibleToken")
	in, err := eval.New(chk, map[string]value.Value{
		"contract_owner": owner,
		"token_name":     value.Str{S: "TestToken"},
		"token_symbol":   value.Str{S: "TT"},
		"decimals":       value.Uint32V(6),
		"init_supply":    u128(supply),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st := eval.NewMemState(chk.FieldTypes)
	if err := st.InitFrom(in); err != nil {
		t.Fatalf("InitFrom: %v", err)
	}
	return in, st
}

func ctx(sender value.ByStr, st eval.StateAccess) *eval.Context {
	return &eval.Context{
		Sender:      sender,
		Origin:      sender,
		Amount:      u128(0),
		BlockNumber: big.NewInt(100),
		State:       st,
	}
}

func balanceOf(t *testing.T, st *eval.MemState, a value.ByStr) uint64 {
	t.Helper()
	v, ok, err := eval.GetAt(st, "balances", []value.Value{a})
	if err != nil {
		t.Fatalf("MapGet: %v", err)
	}
	if !ok {
		return 0
	}
	return v.(value.Int).V.Uint64()
}

func TestFieldInitialisation(t *testing.T) {
	owner := addr(1)
	_, st := newFT(t, owner, 1000)
	if got := balanceOf(t, st, owner); got != 1000 {
		t.Errorf("owner balance = %d, want 1000", got)
	}
	ts, err := st.LoadField("total_supply")
	if err != nil {
		t.Fatal(err)
	}
	if ts.(value.Int).V.Uint64() != 1000 {
		t.Errorf("total_supply = %s, want 1000", ts)
	}
}

func TestTransfer(t *testing.T) {
	owner, bob := addr(1), addr(2)
	in, st := newFT(t, owner, 1000)
	res, err := in.Run(ctx(owner, st), "Transfer", map[string]value.Value{
		"to": bob, "amount": u128(300),
	})
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if len(res.Events) != 1 {
		t.Fatalf("expected 1 event, got %d", len(res.Events))
	}
	if got := balanceOf(t, st, owner); got != 700 {
		t.Errorf("owner balance = %d, want 700", got)
	}
	if got := balanceOf(t, st, bob); got != 300 {
		t.Errorf("bob balance = %d, want 300", got)
	}
	if res.GasUsed == 0 {
		t.Error("expected gas to be consumed")
	}
}

func TestTransferInsufficientBalanceThrows(t *testing.T) {
	owner, bob := addr(1), addr(2)
	in, st := newFT(t, owner, 100)
	_, err := in.Run(ctx(owner, st), "Transfer", map[string]value.Value{
		"to": bob, "amount": u128(300),
	})
	if err == nil {
		t.Fatal("expected a throw")
	}
	if _, ok := err.(*eval.ThrowError); !ok {
		t.Fatalf("expected ThrowError, got %T: %v", err, err)
	}
}

func TestTransferFromRequiresAllowance(t *testing.T) {
	owner, bob, carol := addr(1), addr(2), addr(3)
	in, st := newFT(t, owner, 1000)

	// Without allowance, bob cannot move owner's tokens.
	_, err := in.Run(ctx(bob, st), "TransferFrom", map[string]value.Value{
		"from": owner, "to": carol, "amount": u128(10),
	})
	if err == nil {
		t.Fatal("expected TransferFrom to throw without allowance")
	}

	// Approve then transfer.
	if _, err := in.Run(ctx(owner, st), "Approve", map[string]value.Value{
		"spender": bob, "amount": u128(50),
	}); err != nil {
		t.Fatalf("Approve: %v", err)
	}
	if _, err := in.Run(ctx(bob, st), "TransferFrom", map[string]value.Value{
		"from": owner, "to": carol, "amount": u128(30),
	}); err != nil {
		t.Fatalf("TransferFrom: %v", err)
	}
	if got := balanceOf(t, st, carol); got != 30 {
		t.Errorf("carol balance = %d, want 30", got)
	}
	// Remaining allowance must be 20.
	av, ok, err := eval.GetAt(st, "allowances", []value.Value{owner, bob})
	if err != nil || !ok {
		t.Fatalf("allowance read: ok=%v err=%v", ok, err)
	}
	if av.(value.Int).V.Uint64() != 20 {
		t.Errorf("allowance = %s, want 20", av)
	}
}

func TestMintOnlyOwner(t *testing.T) {
	owner, bob := addr(1), addr(2)
	in, st := newFT(t, owner, 0)
	if _, err := in.Run(ctx(bob, st), "Mint", map[string]value.Value{
		"recipient": bob, "amount": u128(10),
	}); err == nil {
		t.Fatal("expected non-owner Mint to throw")
	}
	if _, err := in.Run(ctx(owner, st), "Mint", map[string]value.Value{
		"recipient": bob, "amount": u128(10),
	}); err != nil {
		t.Fatalf("owner Mint: %v", err)
	}
	if got := balanceOf(t, st, bob); got != 10 {
		t.Errorf("bob balance = %d, want 10", got)
	}
}

func TestBalanceOfSendsCallback(t *testing.T) {
	owner := addr(1)
	in, st := newFT(t, owner, 77)
	res, err := in.Run(ctx(owner, st), "BalanceOf", map[string]value.Value{
		"address": owner,
	})
	if err != nil {
		t.Fatalf("BalanceOf: %v", err)
	}
	if len(res.Messages) != 1 {
		t.Fatalf("expected 1 message, got %d", len(res.Messages))
	}
	msg := res.Messages[0]
	if tag, ok := msg.Entries["_tag"].(value.Str); !ok || tag.S != "BalanceOfCallback" {
		t.Errorf("unexpected tag %v", msg.Entries["_tag"])
	}
	if bal, ok := msg.Entries["balance"].(value.Int); !ok || bal.V.Uint64() != 77 {
		t.Errorf("unexpected balance %v", msg.Entries["balance"])
	}
}

func TestGasLimitEnforced(t *testing.T) {
	owner, bob := addr(1), addr(2)
	in, st := newFT(t, owner, 1000)
	c := ctx(owner, st)
	c.GasLimit = 3
	_, err := in.Run(c, "Transfer", map[string]value.Value{
		"to": bob, "amount": u128(1),
	})
	if _, ok := err.(*eval.OutOfGasError); !ok {
		t.Fatalf("expected OutOfGasError, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	owner, bob := addr(1), addr(2)
	run := func() *eval.MemState {
		in, st := newFT(t, owner, 1000)
		for i := 0; i < 5; i++ {
			if _, err := in.Run(ctx(owner, st), "Transfer", map[string]value.Value{
				"to": bob, "amount": u128(10),
			}); err != nil {
				t.Fatalf("Transfer: %v", err)
			}
		}
		return st
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Error("identical executions produced different states")
	}
}
