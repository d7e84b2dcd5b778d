package eval_test

import (
	"math/big"
	"testing"

	"cosplit/internal/contracts"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/stdlib"
	"cosplit/internal/scilla/value"
)

// newContract instantiates any corpus contract with the given params.
func newContract(t *testing.T, name string, params map[string]value.Value) (*eval.Interpreter, *eval.MemState) {
	t.Helper()
	chk := contracts.MustParse(name)
	in, err := eval.New(chk, params)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	st := eval.NewMemState(chk.FieldTypes)
	if err := st.InitFrom(in); err != nil {
		t.Fatalf("InitFrom(%s): %v", name, err)
	}
	return in, st
}

func ctxAt(sender value.ByStr, st eval.StateAccess, block int64) *eval.Context {
	return &eval.Context{
		Sender: sender, Origin: sender,
		Amount:      u128(0),
		BlockNumber: big.NewInt(block),
		State:       st,
	}
}

func hash32(b byte) value.ByStr {
	bs := make([]byte, 32)
	bs[0] = b
	return value.ByStr{Ty: ast.TyByStr32, B: bs}
}

func u256(v uint64) value.Int {
	return value.Int{Ty: ast.TyUint256, V: new(big.Int).SetUint64(v)}
}

// --- NonfungibleToken ---

func TestNFTLifecycle(t *testing.T) {
	owner, alice, bob := addr(1), addr(2), addr(3)
	in, st := newContract(t, "NonfungibleToken", map[string]value.Value{
		"contract_owner": owner,
		"name":           value.Str{S: "N"},
		"symbol":         value.Str{S: "N"},
	})

	// Mint token 7 to alice.
	if _, err := in.Run(ctxAt(owner, st, 1), "Mint", map[string]value.Value{
		"to": alice, "token_id": u256(7),
	}); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	// Re-minting the same token must throw.
	if _, err := in.Run(ctxAt(owner, st, 1), "Mint", map[string]value.Value{
		"to": bob, "token_id": u256(7),
	}); err == nil {
		t.Fatal("duplicate mint accepted")
	}
	// Non-minter cannot mint.
	if _, err := in.Run(ctxAt(alice, st, 1), "Mint", map[string]value.Value{
		"to": alice, "token_id": u256(8),
	}); err == nil {
		t.Fatal("non-minter mint accepted")
	}

	// Transfer with wrong expected owner fails (CAS check).
	if _, err := in.Run(ctxAt(alice, st, 1), "Transfer", map[string]value.Value{
		"to": bob, "token_id": u256(7), "token_owner": bob,
	}); err == nil {
		t.Fatal("CAS owner mismatch accepted")
	}
	// Bob cannot move alice's token.
	if _, err := in.Run(ctxAt(bob, st, 1), "Transfer", map[string]value.Value{
		"to": bob, "token_id": u256(7), "token_owner": alice,
	}); err == nil {
		t.Fatal("unauthorised transfer accepted")
	}
	// Alice approves bob, who then transfers.
	if _, err := in.Run(ctxAt(alice, st, 1), "Approve", map[string]value.Value{
		"to": bob, "token_id": u256(7),
	}); err != nil {
		t.Fatalf("Approve: %v", err)
	}
	if _, err := in.Run(ctxAt(bob, st, 1), "Transfer", map[string]value.Value{
		"to": bob, "token_id": u256(7), "token_owner": alice,
	}); err != nil {
		t.Fatalf("approved transfer: %v", err)
	}
	v, ok, _ := eval.GetAt(st, "token_owners", []value.Value{u256(7)})
	if !ok || !value.Equal(v, bob) {
		t.Errorf("token 7 owner = %v, want bob", v)
	}
	// Counters updated commutatively.
	ac, ok, _ := eval.GetAt(st, "owned_count", []value.Value{alice})
	if !ok || ac.(value.Int).V.Uint64() != 0 {
		t.Errorf("alice count = %v, want 0", ac)
	}
	bc, _, _ := eval.GetAt(st, "owned_count", []value.Value{bob})
	if bc.(value.Int).V.Uint64() != 1 {
		t.Errorf("bob count = %v, want 1", bc)
	}

	// Burn by owner.
	if _, err := in.Run(ctxAt(bob, st, 1), "Burn", map[string]value.Value{
		"token_id": u256(7),
	}); err != nil {
		t.Fatalf("Burn: %v", err)
	}
	if _, ok, _ := eval.GetAt(st, "token_owners", []value.Value{u256(7)}); ok {
		t.Error("burned token still owned")
	}
}

// --- Crowdfunding ---

func TestCrowdfundingLifecycle(t *testing.T) {
	owner, donor := addr(1), addr(2)
	in, st := newContract(t, "Crowdfunding", map[string]value.Value{
		"owner":     owner,
		"max_block": value.BNum{V: big.NewInt(100)},
		"goal":      u128(1000),
	})

	donate := func(who value.ByStr, amount uint64, block int64) error {
		ctx := ctxAt(who, st, block)
		ctx.Amount = u128(amount)
		res, err := in.Run(ctx, "Donate", nil)
		if err == nil && !res.Accepted {
			t.Fatal("donation did not accept funds")
		}
		return err
	}
	if err := donate(donor, 500, 50); err != nil {
		t.Fatalf("Donate: %v", err)
	}
	// Second donation by the same backer throws.
	if err := donate(donor, 100, 51); err == nil {
		t.Fatal("double donation accepted")
	}
	// Donation after the deadline throws.
	if err := donate(addr(3), 100, 200); err == nil {
		t.Fatal("late donation accepted")
	}

	// ClaimBack before the deadline throws.
	if _, err := in.Run(ctxAt(donor, st, 50), "ClaimBack", nil); err == nil {
		t.Fatal("early claim-back accepted")
	}
	// After the deadline with goal unmet (balance 500 < 1000): refund.
	ctx := ctxAt(donor, st, 150)
	ctx.ContractBalance = big.NewInt(500)
	res, err := in.Run(ctx, "ClaimBack", nil)
	if err != nil {
		t.Fatalf("ClaimBack: %v", err)
	}
	if len(res.Messages) != 1 {
		t.Fatal("refund message missing")
	}
	amt := res.Messages[0].Entries["_amount"].(value.Int)
	if amt.V.Uint64() != 500 {
		t.Errorf("refund = %s, want 500", amt)
	}
	// GetFunds with goal unmet throws even for the owner.
	ctx2 := ctxAt(owner, st, 150)
	ctx2.ContractBalance = big.NewInt(0)
	if _, err := in.Run(ctx2, "GetFunds", nil); err == nil {
		t.Fatal("GetFunds with unmet goal accepted")
	}
}

// --- HTLC (hash locks + custom ADT) ---

func TestHTLCClaim(t *testing.T) {
	locker, recipient := addr(1), addr(2)
	in, st := newContract(t, "HTLC", map[string]value.Value{
		"registry_owner": addr(9),
	})

	preimage := value.ByStr{Ty: ast.TyByStr, B: []byte("secret")}
	hv, err := stdlib.Eval("sha256hash", []value.Value{preimage})
	if err != nil {
		t.Fatal(err)
	}
	hashLock := hv.(value.ByStr)
	hashLock.Ty = ast.TyByStr32

	ctx := ctxAt(locker, st, 10)
	ctx.Amount = u128(777)
	if _, err := in.Run(ctx, "NewLock", map[string]value.Value{
		"hash_lock": hashLock, "recipient": recipient,
		"expiry": value.BNum{V: big.NewInt(100)},
	}); err != nil {
		t.Fatalf("NewLock: %v", err)
	}

	// Wrong preimage fails.
	if _, err := in.Run(ctxAt(recipient, st, 20), "Claim", map[string]value.Value{
		"hash_lock": hashLock,
		"preimage":  value.ByStr{Ty: ast.TyByStr, B: []byte("wrong")},
	}); err == nil {
		t.Fatal("wrong preimage accepted")
	}
	// Correct preimage pays the recipient.
	res, err := in.Run(ctxAt(recipient, st, 20), "Claim", map[string]value.Value{
		"hash_lock": hashLock, "preimage": preimage,
	})
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	msg := res.Messages[0]
	if !value.Equal(msg.Entries["_recipient"], recipient) {
		t.Errorf("claim recipient = %s", msg.Entries["_recipient"])
	}
	if msg.Entries["_amount"].(value.Int).V.Uint64() != 777 {
		t.Errorf("claim amount = %s", msg.Entries["_amount"])
	}
	// Lock is consumed.
	if _, ok, _ := eval.GetAt(st, "locks", []value.Value{hashLock}); ok {
		t.Error("lock survived the claim")
	}
}

// --- Multisig (custom ADT + m-of-n flow) ---

func TestMultisigFlow(t *testing.T) {
	a, b, c, payee := addr(1), addr(2), addr(3), addr(4)
	in, st := newContract(t, "Multisig", map[string]value.Value{
		"owner_a": a, "owner_b": b, "owner_c": c,
		"required": value.Uint32V(2),
	})

	if _, err := in.Run(ctxAt(a, st, 1), "Submit", map[string]value.Value{
		"recipient": payee, "amount": u128(50),
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := value.Uint32V(0)
	// One signature is not enough.
	if _, err := in.Run(ctxAt(a, st, 1), "Sign", map[string]value.Value{"id": id}); err != nil {
		t.Fatalf("Sign a: %v", err)
	}
	if _, err := in.Run(ctxAt(a, st, 1), "Execute", map[string]value.Value{"id": id}); err == nil {
		t.Fatal("executed with 1 of 2 signatures")
	}
	// Duplicate signature rejected.
	if _, err := in.Run(ctxAt(a, st, 1), "Sign", map[string]value.Value{"id": id}); err == nil {
		t.Fatal("duplicate signature accepted")
	}
	// Second signature enables execution.
	if _, err := in.Run(ctxAt(b, st, 1), "Sign", map[string]value.Value{"id": id}); err != nil {
		t.Fatalf("Sign b: %v", err)
	}
	res, err := in.Run(ctxAt(c, st, 1), "Execute", map[string]value.Value{"id": id})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Messages) != 1 || res.Messages[0].Entries["_amount"].(value.Int).V.Uint64() != 50 {
		t.Errorf("payout message wrong: %v", res.Messages)
	}
	// Executed transaction is gone.
	if _, err := in.Run(ctxAt(a, st, 1), "Execute", map[string]value.Value{"id": id}); err == nil {
		t.Fatal("double execution accepted")
	}
}

// --- Airdrop (polymorphic list natives at runtime) ---

func TestAirdropListNatives(t *testing.T) {
	admin := addr(1)
	in, st := newContract(t, "Airdrop", map[string]value.Value{"admin": admin})

	recipients := value.Value(value.NilList(ast.TyByStr20))
	for i := 5; i > 1; i-- {
		recipients = value.Cons(ast.TyByStr20, addr(byte(i)), recipients)
	}
	res, err := in.Run(ctxAt(admin, st, 1), "Drop", map[string]value.Value{
		"recipients": recipients,
	})
	if err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if len(res.Messages) != 4 {
		t.Fatalf("expected 4 payout messages, got %d", len(res.Messages))
	}
	for _, m := range res.Messages {
		if m.Entries["_amount"].(value.Int).V.Uint64() != 5 {
			t.Errorf("payout amount = %s, want 5 (reward)", m.Entries["_amount"])
		}
	}
	if len(res.Events) != 1 {
		t.Fatalf("expected count event")
	}
	if n := res.Events[0].Entries["count"].(value.Int); n.V.Uint64() != 4 {
		t.Errorf("count = %s, want 4", n)
	}
}

// --- Voting (exists-guard + commutative counters) ---

func TestVotingFlow(t *testing.T) {
	org, v1, v2 := addr(1), addr(2), addr(3)
	in, st := newContract(t, "Voting", map[string]value.Value{"organiser": org})

	if _, err := in.Run(ctxAt(org, st, 1), "AddOption", map[string]value.Value{
		"option": value.Str{S: "yes"},
	}); err != nil {
		t.Fatal(err)
	}
	// Voting for a missing option throws.
	if _, err := in.Run(ctxAt(v1, st, 1), "Vote", map[string]value.Value{
		"option": value.Str{S: "maybe"},
	}); err == nil {
		t.Fatal("vote for unknown option accepted")
	}
	for _, voter := range []value.ByStr{v1, v2} {
		if _, err := in.Run(ctxAt(voter, st, 1), "Vote", map[string]value.Value{
			"option": value.Str{S: "yes"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Double vote throws.
	if _, err := in.Run(ctxAt(v1, st, 1), "Vote", map[string]value.Value{
		"option": value.Str{S: "yes"},
	}); err == nil {
		t.Fatal("double vote accepted")
	}
	cnt, _, _ := eval.GetAt(st, "votes", []value.Value{value.Str{S: "yes"}})
	if cnt.(value.Int).V.Uint64() != 2 {
		t.Errorf("votes = %s, want 2", cnt)
	}
	// Close and verify voting stops.
	if _, err := in.Run(ctxAt(org, st, 1), "CloseElection", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(ctxAt(addr(7), st, 1), "Vote", map[string]value.Value{
		"option": value.Str{S: "yes"},
	}); err == nil {
		t.Fatal("vote after close accepted")
	}
}

// --- Bookstore (custom ADT storage) ---

func TestBookstoreCRUD(t *testing.T) {
	owner := addr(1)
	in, st := newContract(t, "Bookstore", map[string]value.Value{"store_owner": owner})
	add := func(id uint32, title string) error {
		_, err := in.Run(ctxAt(owner, st, 1), "AddBook", map[string]value.Value{
			"book_id": value.Uint32V(id),
			"title":   value.Str{S: title},
			"author":  value.Str{S: "A"},
			"price":   u128(10),
		})
		return err
	}
	if err := add(1, "SICP"); err != nil {
		t.Fatal(err)
	}
	if err := add(1, "Dup"); err == nil {
		t.Fatal("duplicate book accepted")
	}
	if _, err := in.Run(ctxAt(owner, st, 1), "UpdateBook", map[string]value.Value{
		"book_id": value.Uint32V(1),
		"title":   value.Str{S: "SICP 2e"},
		"author":  value.Str{S: "A"},
		"price":   u128(12),
	}); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := eval.GetAt(st, "inventory", []value.Value{value.Uint32V(1)})
	if !ok {
		t.Fatal("book missing")
	}
	book := v.(value.ADT)
	if book.Constr != "Book" || book.Args[0].(value.Str).S != "SICP 2e" {
		t.Errorf("book = %s", book)
	}
	if _, err := in.Run(ctxAt(owner, st, 1), "RemoveBook", map[string]value.Value{
		"book_id": value.Uint32V(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := eval.GetAt(st, "inventory", []value.Value{value.Uint32V(1)}); ok {
		t.Error("book survived removal")
	}
	// Non-member rejected.
	if err := addAs(t, in, st, addr(5)); err == nil {
		t.Fatal("non-member AddBook accepted")
	}
}

func addAs(t *testing.T, in *eval.Interpreter, st *eval.MemState, who value.ByStr) error {
	t.Helper()
	_, err := in.Run(ctxAt(who, st, 1), "AddBook", map[string]value.Value{
		"book_id": value.Uint32V(9),
		"title":   value.Str{S: "X"},
		"author":  value.Str{S: "Y"},
		"price":   u128(1),
	})
	return err
}

// --- ProofIPFS register/verify/withdraw ---

func TestProofIPFSFlow(t *testing.T) {
	admin, user := addr(1), addr(2)
	in, st := newContract(t, "ProofIPFS", map[string]value.Value{"initial_admin": admin})

	ctx := ctxAt(user, st, 1)
	ctx.Amount = u128(0)
	if _, err := in.Run(ctx, "RegisterOwnership", map[string]value.Value{
		"item_hash": hash32(1),
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Duplicate registration throws.
	if _, err := in.Run(ctxAt(addr(3), st, 1), "RegisterOwnership", map[string]value.Value{
		"item_hash": hash32(1),
	}); err == nil {
		t.Fatal("duplicate hash registration accepted")
	}
	res, err := in.Run(ctxAt(addr(3), st, 1), "VerifyOwnership", map[string]value.Value{
		"item_hash": hash32(1),
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !value.Equal(res.Messages[0].Entries["owner"], user) {
		t.Errorf("verified owner = %s, want user", res.Messages[0].Entries["owner"])
	}
	// Registration can be closed by the admin; then registering throws.
	f := value.False()
	if _, err := in.Run(ctxAt(admin, st, 1), "SetRegistrationOpen", map[string]value.Value{
		"open": f,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(ctxAt(user, st, 1), "RegisterOwnership", map[string]value.Value{
		"item_hash": hash32(2),
	}); err == nil {
		t.Fatal("registration accepted while closed")
	}
}
