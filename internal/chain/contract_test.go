package chain_test

import (
	"strings"
	"testing"

	"cosplit/internal/chain"
	"cosplit/internal/contracts"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

func ftParams(owner chain.Address) map[string]value.Value {
	return map[string]value.Value{
		"contract_owner": owner.Value(),
		"token_name":     value.Str{S: "T"},
		"token_symbol":   value.Str{S: "T"},
		"decimals":       value.Uint32V(6),
		"init_supply":    value.Uint128(100),
	}
}

func TestDeployPipeline(t *testing.T) {
	owner := chain.AddrFromUint(1)
	addr := chain.ContractAddress(owner, 1)
	entry, _ := contracts.Get("FungibleToken")
	c, err := chain.Deploy(addr, entry.Source, ftParams(owner), &chain.Deployment{
		Query: &signature.Query{
			Transitions: []string{"Transfer"},
			WeakReads:   []string{"balances"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sig == nil {
		t.Fatal("signature missing after deploy with query")
	}
	if len(c.Sig.Constraints["Transfer"]) == 0 {
		t.Error("Transfer constraints missing")
	}
	// Initial state reflects the initialisers.
	v, ok, err := eval.GetAt(c.Snapshot(), "balances", []value.Value{owner.Value()})
	if err != nil || !ok || v.(value.Int).V.Uint64() != 100 {
		t.Errorf("owner balance after deploy = %v %v %v", v, ok, err)
	}
}

// TestDeploySignatureValidation: miners re-derive the proposed
// signature; a forged one is rejected (Sec. 4.3, "Validating Sharding
// Signatures").
func TestDeploySignatureValidation(t *testing.T) {
	owner := chain.AddrFromUint(1)
	entry, _ := contracts.Get("FungibleToken")
	q := &signature.Query{Transitions: []string{"Transfer"}, WeakReads: []string{"balances"}}

	// An honest proposal validates.
	honest, err := chain.Deploy(chain.ContractAddress(owner, 1), entry.Source, ftParams(owner),
		&chain.Deployment{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Deploy(chain.ContractAddress(owner, 2), entry.Source, ftParams(owner),
		&chain.Deployment{Query: q, ProposedSignature: honest.Sig}); err != nil {
		t.Fatalf("honest signature rejected: %v", err)
	}

	// A forged signature (extra constraints stripped) is rejected.
	forged := *honest.Sig
	forged.Constraints = map[string][]signature.Constraint{"Transfer": {}}
	_, err = chain.Deploy(chain.ContractAddress(owner, 3), entry.Source, ftParams(owner),
		&chain.Deployment{Query: q, ProposedSignature: &forged})
	if err == nil || !strings.Contains(err.Error(), "does not validate") {
		t.Errorf("forged signature accepted: %v", err)
	}
}

func TestDeployErrors(t *testing.T) {
	owner := chain.AddrFromUint(1)
	if _, err := chain.Deploy(chain.Address{}, "scilla_version 0\ncontract", nil, nil); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := chain.Deploy(chain.Address{},
		"scilla_version 0\ncontract C ()\nfield x : Uint128 = Uint32 1\n", nil, nil); err == nil {
		t.Error("type error not reported")
	}
	entry, _ := contracts.Get("FungibleToken")
	if _, err := chain.Deploy(chain.Address{}, entry.Source,
		map[string]value.Value{}, nil); err == nil {
		t.Error("missing contract parameters not reported")
	}
	_ = owner
}

func TestContractsRegistry(t *testing.T) {
	cs := chain.NewContracts()
	owner := chain.AddrFromUint(1)
	entry, _ := contracts.Get("FungibleToken")
	c, err := chain.Deploy(chain.ContractAddress(owner, 1), entry.Source, ftParams(owner), nil)
	if err != nil {
		t.Fatal(err)
	}
	cs.Add(c)
	if cs.Get(c.Addr) != c {
		t.Error("registry lookup failed")
	}
	if cs.Get(chain.AddrFromUint(42)) != nil {
		t.Error("phantom contract found")
	}
	if len(cs.All()) != 1 {
		t.Error("All() wrong")
	}
}

func TestReplaceState(t *testing.T) {
	owner := chain.AddrFromUint(1)
	entry, _ := contracts.Get("FungibleToken")
	c, err := chain.Deploy(chain.ContractAddress(owner, 1), entry.Source, ftParams(owner), nil)
	if err != nil {
		t.Fatal(err)
	}
	next := c.Snapshot().Copy()
	if err := next.StoreField("total_supply", value.Uint128(42)); err != nil {
		t.Fatal(err)
	}
	c.ReplaceState(next)
	v, err := c.Snapshot().LoadField("total_supply")
	if err != nil || v.(value.Int).V.Uint64() != 42 {
		t.Errorf("state replacement failed: %v %v", v, err)
	}
}
