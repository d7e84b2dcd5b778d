package signature_test

import (
	"testing"

	"cosplit/internal/contracts"
	"cosplit/internal/core/analysis"
	"cosplit/internal/core/domain"
	"cosplit/internal/core/signature"
)

func summaries(t *testing.T, contract string) map[string]*domain.Summary {
	t.Helper()
	chk := contracts.MustParse(contract)
	a, err := analysis.New(chk)
	if err != nil {
		t.Fatalf("analysis.New: %v", err)
	}
	sums, err := a.AnalyzeAll()
	if err != nil {
		t.Fatalf("AnalyzeAll: %v", err)
	}
	return sums
}

func derive(t *testing.T, contract string, q signature.Query) *signature.Signature {
	t.Helper()
	sg, err := signature.Derive(summaries(t, contract), q)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return sg
}

func hasConstraint(cs []signature.Constraint, render string) bool {
	for _, c := range cs {
		if c.String() == render {
			return true
		}
	}
	return false
}

// TestFTTransferSignature reproduces the paper's Sec. 2.2 strategy-2
// result: Transfer needs to own only balances[_sender]; the write to
// balances[to] is commutative (IntMerge), and its read is removed.
func TestFTTransferSignature(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances"},
	})

	cs := sg.Constraints["Transfer"]
	if signature.IsBottom(sg, "Transfer") {
		t.Fatalf("Transfer is ⊥:\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(balances[_sender])") {
		t.Errorf("missing Owns(balances[_sender]):\n%s", sg)
	}
	if hasConstraint(cs, "Owns(balances[to])") {
		t.Errorf("balances[to] must not be owned (commutative write):\n%s", sg)
	}
	if !hasConstraint(cs, "NoAliases(⟨_sender⟩, ⟨to⟩)") {
		t.Errorf("missing NoAliases(_sender, to):\n%s", sg)
	}
	if sg.Joins["balances"] != signature.IntMerge {
		t.Errorf("balances join = %s, want IntMerge", sg.Joins["balances"])
	}
}

// TestFTMintNeedsNoOwnership: Mint writes only commutatively and reads
// only a constant field, so it can run in any shard.
func TestFTMintNeedsNoOwnership(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances"},
	})
	for _, c := range sg.Constraints["Mint"] {
		if c.Kind == signature.COwns {
			t.Errorf("Mint should not require ownership, has %s", c)
		}
		if c.Kind == signature.CBottom {
			t.Errorf("Mint is ⊥")
		}
	}
	if sg.Joins["total_supply"] != signature.IntMerge {
		t.Errorf("total_supply join = %s, want IntMerge", sg.Joins["total_supply"])
	}
}

// TestFTTransferFromSignature: TransferFrom owns the allowance entry
// and the source balance; the destination write stays commutative.
func TestFTTransferFromSignature(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances", "allowances"},
	})
	cs := sg.Constraints["TransferFrom"]
	if !hasConstraint(cs, "Owns(allowances[from][_sender])") {
		t.Errorf("missing Owns(allowances[from][_sender]):\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(balances[from])") {
		t.Errorf("missing Owns(balances[from]):\n%s", sg)
	}
	if hasConstraint(cs, "Owns(balances[to])") {
		t.Errorf("balances[to] must not be owned:\n%s", sg)
	}
}

// TestWeakReadsRequired: without accepting stale reads on balances, the
// IntMerge join must be demoted and ownership reinstated.
func TestWeakReadsRequired(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Transfer"},
	})
	if sg.Joins["balances"] != signature.OwnOverwrite {
		t.Errorf("balances join = %s, want OwnOverwrite without weak reads", sg.Joins["balances"])
	}
	cs := sg.Constraints["Transfer"]
	if !hasConstraint(cs, "Owns(balances[to])") {
		t.Errorf("without weak reads, balances[to] must be owned:\n%s", sg)
	}
}

// TestConstantFieldReadsRemoved: when ChangeOwner is not selected,
// current_owner is a constant field and Mint needs no ownership of it.
func TestConstantFieldReadsRemoved(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Mint"},
		WeakReads:   []string{"balances"},
	})
	if hasConstraint(sg.Constraints["Mint"], "Owns(current_owner)") {
		t.Errorf("current_owner is constant, must not be owned:\n%s", sg)
	}
}

// TestConstantFieldWrittenWhenSelected: selecting ChangeOwner together
// with Mint makes current_owner non-constant; Mint must then own it.
func TestConstantFieldWrittenWhenSelected(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Mint", "ChangeOwner"},
		WeakReads:   []string{"balances"},
	})
	if !hasConstraint(sg.Constraints["Mint"], "Owns(current_owner)") {
		t.Errorf("current_owner is written by ChangeOwner; Mint must own it:\n%s", sg)
	}
	// ChangeOwner's write to current_owner is an overwrite.
	if sg.Joins["current_owner"] != signature.OwnOverwrite {
		t.Errorf("current_owner join = %s, want OwnOverwrite", sg.Joins["current_owner"])
	}
}

// TestApproveOverwrite: Approve's allowance write is an overwrite, so
// the entry must be owned; disjoint entries still shard (strategy 1).
func TestApproveOverwrite(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"Approve"},
	})
	cs := sg.Constraints["Approve"]
	if !hasConstraint(cs, "Owns(allowances[_sender][spender])") {
		t.Errorf("missing Owns(allowances[_sender][spender]):\n%s", sg)
	}
	if sg.Joins["allowances"] != signature.OwnOverwrite {
		t.Errorf("allowances join = %s, want OwnOverwrite", sg.Joins["allowances"])
	}
}

// TestBalanceOfUserAddr: the read-only query sends a zero-amount
// message back to _sender, yielding a UserAddr constraint and no
// ContractShard. Selected alone, balances is a constant field so no
// ownership is needed at all.
func TestBalanceOfUserAddr(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"BalanceOf"},
	})
	cs := sg.Constraints["BalanceOf"]
	if !hasConstraint(cs, "UserAddr(_sender)") {
		t.Errorf("missing UserAddr(_sender):\n%s", sg)
	}
	for _, c := range cs {
		if c.Kind == signature.CContractShard {
			t.Errorf("zero-amount send must not require ContractShard:\n%s", sg)
		}
		if c.Kind == signature.COwns {
			t.Errorf("balances is constant when only BalanceOf is selected, got %s", c)
		}
	}
}

// TestBalanceOfWithTransfer: once Transfer is co-selected, balances is
// written, and BalanceOf's read (flowing into the callback message)
// must force ownership of the entry.
func TestBalanceOfWithTransfer(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions: []string{"BalanceOf", "Transfer"},
		WeakReads:   []string{"balances"},
	})
	if !hasConstraint(sg.Constraints["BalanceOf"], "Owns(balances[address])") {
		t.Errorf("BalanceOf must own the balance entry it reports:\n%s", sg)
	}
}

// TestSignatureDeterminism: deriving twice gives identical renderings.
func TestSignatureDeterminism(t *testing.T) {
	q := signature.Query{
		Transitions: []string{"Mint", "Transfer", "TransferFrom"},
		WeakReads:   []string{"balances", "allowances"},
	}
	a := derive(t, "FungibleToken", q).String()
	b := derive(t, "FungibleToken", q).String()
	if a != b {
		t.Errorf("non-deterministic signature derivation:\n%s\n---\n%s", a, b)
	}
}

// TestCoarseOwnershipAblation: with pseudo-fields disabled, Transfer
// must own the whole balances field (everything serialises).
func TestCoarseOwnershipAblation(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions:          []string{"Transfer"},
		WeakReads:            []string{"balances"},
		CoarseOwnership:      true,
		DisableCommutativity: true,
	})
	cs := sg.Constraints["Transfer"]
	if !hasConstraint(cs, "Owns(balances)") {
		t.Errorf("coarse ownership must own the whole balances field:\n%s", sg)
	}
	for _, c := range cs {
		if c.Kind == signature.COwns && len(c.Field.Keys) > 0 {
			t.Errorf("keyed Owns survived coarsening: %s", c)
		}
		if c.Kind == signature.CNoAliases {
			t.Errorf("NoAliases survived coarsening: %s", c)
		}
	}
}

// TestDisableCommutativityAblation: strategy-1-only must own the
// recipient balance entry too.
func TestDisableCommutativityAblation(t *testing.T) {
	sg := derive(t, "FungibleToken", signature.Query{
		Transitions:          []string{"Transfer"},
		WeakReads:            []string{"balances"},
		DisableCommutativity: true,
	})
	cs := sg.Constraints["Transfer"]
	if !hasConstraint(cs, "Owns(balances[to])") {
		t.Errorf("strategy 1 must own balances[to]:\n%s", sg)
	}
	if sg.Joins["balances"] != signature.OwnOverwrite {
		t.Errorf("joins must be OwnOverwrite under the ablation")
	}
}
