package signature_test

import (
	"testing"

	"cosplit/internal/core/signature"
)

// PaperQueries reproduces the "Selection of Sharding Signatures" from
// Sec. 5.2 for the five evaluation contracts.
func paperQuery(contract string) signature.Query {
	switch contract {
	case "FungibleToken":
		return signature.Query{
			Transitions: []string{"Mint", "Transfer", "TransferFrom"},
			WeakReads:   []string{"balances", "allowances"},
		}
	case "NonfungibleToken":
		return signature.Query{
			Transitions: []string{"Mint", "Transfer"},
			WeakReads:   []string{"owned_count", "total_tokens"},
		}
	case "Crowdfunding":
		return signature.Query{
			Transitions: []string{"Donate", "ClaimBack"},
			WeakReads:   []string{signature.BalanceField},
		}
	case "ProofIPFS":
		return signature.Query{
			Transitions: []string{"RegisterOwnership"},
			WeakReads:   []string{"collected", "item_count"},
		}
	case "UDRegistry":
		return signature.Query{
			Transitions: []string{"Bestow", "Configure", "ConfigureResolver"},
		}
	}
	panic("unknown contract " + contract)
}

func TestNFTTransferSignature(t *testing.T) {
	sg := derive(t, "NonfungibleToken", paperQuery("NonfungibleToken"))
	cs := sg.Constraints["Transfer"]
	if signature.IsBottom(sg, "Transfer") {
		t.Fatalf("NFT Transfer is ⊥:\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(token_owners[token_id])") {
		t.Errorf("missing Owns(token_owners[token_id]):\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(token_approvals[token_id])") {
		t.Errorf("missing Owns(token_approvals[token_id]):\n%s", sg)
	}
	// The owner counters are adjusted commutatively (zero-default
	// peel), so no ownership of owned_count is needed: the transition's
	// footprint is keyed entirely by the token id.
	for _, c := range cs {
		if c.Kind == signature.COwns && c.Field.Name == "owned_count" {
			t.Errorf("owned_count must not be owned (commutative counters):\n%s", sg)
		}
	}
	if sg.Joins["owned_count"] != signature.IntMerge {
		t.Errorf("owned_count join = %s, want IntMerge", sg.Joins["owned_count"])
	}
}

func TestNFTMintSignature(t *testing.T) {
	sg := derive(t, "NonfungibleToken", paperQuery("NonfungibleToken"))
	cs := sg.Constraints["Mint"]
	if !hasConstraint(cs, "Owns(token_owners[token_id])") {
		t.Errorf("Mint must own the token slot it creates:\n%s", sg)
	}
	// Mint must not require ownership keyed by the sender: this is what
	// lets a single-source mint workload scale linearly (Sec. 5.2.1).
	for _, c := range cs {
		if c.Kind == signature.COwns {
			for _, k := range c.Field.Keys {
				if k == "_sender" {
					t.Errorf("Mint ownership depends on sender: %s", c)
				}
			}
		}
		if c.Kind == signature.CSenderShard {
			t.Errorf("Mint must not be pinned to the sender shard")
		}
	}
}

func TestCrowdfundingDonateSignature(t *testing.T) {
	sg := derive(t, "Crowdfunding", paperQuery("Crowdfunding"))
	cs := sg.Constraints["Donate"]
	if signature.IsBottom(sg, "Donate") {
		t.Fatalf("Donate is ⊥:\n%s", sg)
	}
	if !hasConstraint(cs, "SenderShard") {
		t.Errorf("Donate accepts funds, needs SenderShard:\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(backers[_sender])") {
		t.Errorf("missing Owns(backers[_sender]):\n%s", sg)
	}
	if sg.Joins[signature.BalanceField] != signature.IntMerge {
		t.Errorf("_balance join = %s, want IntMerge", sg.Joins[signature.BalanceField])
	}
	// ClaimBack sends funds out of the contract.
	if !hasConstraint(sg.Constraints["ClaimBack"], "ContractShard") {
		t.Errorf("ClaimBack must require ContractShard:\n%s", sg)
	}
}

func TestProofIPFSRegisterSignature(t *testing.T) {
	sg := derive(t, "ProofIPFS", paperQuery("ProofIPFS"))
	cs := sg.Constraints["RegisterOwnership"]
	if signature.IsBottom(sg, "RegisterOwnership") {
		t.Fatalf("RegisterOwnership is ⊥:\n%s", sg)
	}
	// The two ownership constraints with differently-keyed components
	// are exactly why this workload doesn't scale (Sec. 5.2.1).
	if !hasConstraint(cs, "Owns(ipfsInventory[item_hash])") {
		t.Errorf("missing Owns(ipfsInventory[item_hash]):\n%s", sg)
	}
	if !hasConstraint(cs, "Owns(registered_items[_sender][item_hash])") {
		t.Errorf("missing Owns(registered_items[_sender][item_hash]):\n%s", sg)
	}
	// price and registration_open are constant fields here.
	for _, c := range cs {
		if c.Kind == signature.COwns && (c.Field.Name == "price" || c.Field.Name == "registration_open") {
			t.Errorf("constant field needlessly owned: %s", c)
		}
	}
}

func TestUDRegistrySignatures(t *testing.T) {
	sg := derive(t, "UDRegistry", paperQuery("UDRegistry"))
	if !hasConstraint(sg.Constraints["Bestow"], "Owns(records[node])") {
		t.Errorf("Bestow must own records[node]:\n%s", sg)
	}
	// admins is never written by the selected transitions => constant.
	for _, c := range sg.Constraints["Bestow"] {
		if c.Kind == signature.COwns && c.Field.Name == "admins" {
			t.Errorf("admins is constant, must not be owned: %s", c)
		}
	}
	ccs := sg.Constraints["Configure"]
	if !hasConstraint(ccs, "Owns(records[node])") {
		t.Errorf("Configure must own records[node]:\n%s", sg)
	}
	if !hasConstraint(ccs, "Owns(record_data[node][key])") {
		t.Errorf("Configure must own record_data[node][key]:\n%s", sg)
	}
}
