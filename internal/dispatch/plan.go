package dispatch

import (
	"cosplit/internal/chain"
	"cosplit/internal/core/signature"
	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/value"
)

// A plan is the compiled form of one transition's constraint set: the
// signature is interpreted once per (contract, transition) instead of
// once per transaction, every per-step reason string is built at
// compile time, and the common parameter shapes (whole-field ownership,
// _sender/_origin keys) are specialised so evaluating dispatch_oc(T, x)
// allocates nothing on the hot path.
type plan struct {
	steps []planStep
}

// ownsMode specialises how an Owns step resolves its owning shard.
type ownsMode uint8

const (
	// ownsContract: a whole field, owned by the contract's home shard.
	ownsContract ownsMode = iota
	// ownsSender: first key is _sender/_origin, owned by the sender's
	// home shard.
	ownsSender
	// ownsParam: first key is a transition parameter, owned by the
	// shard of the concrete key value.
	ownsParam
)

type planStep struct {
	kind signature.ConstraintKind

	// CUserAddr: parameter holding the address; paramIsSender is set
	// when it is the implicit _sender/_origin.
	param         string
	paramIsSender bool

	// CNoAliases: the two symbolic key vectors.
	a, b []string

	// COwns.
	owns   ownsMode
	ownKey string // ownsParam: the parameter naming the first key

	// Precomputed reasons (built once at compile time).
	conflictReason string // force() conflict for this step
	dsReason       string // unresolvable-argument fallback for this step
}

// Constant reasons shared across steps.
const (
	reasonSatisfied    = "constraints satisfied"
	reasonBottom       = "unshardable transition (⊥)"
	reasonNonAddrUser  = "non-address UserAddr argument"
	reasonContractRcpt = "message recipient is a contract"
	reasonAliasKeys    = "aliasing map keys"
	reasonNoAliasUnres = "unresolvable NoAliases keys"
	reasonOwnsUnres    = "unresolvable ownership keys"
	reasonNotInSig     = "transition not in sharding signature"
)

// compilePlan translates a constraint set into its evaluation plan.
func compilePlan(cs []signature.Constraint) *plan {
	p := &plan{steps: make([]planStep, 0, len(cs))}
	for _, con := range cs {
		st := planStep{kind: con.Kind}
		switch con.Kind {
		case signature.CSenderShard:
			st.conflictReason = "conflicting shard requirements: SenderShard"
		case signature.CContractShard:
			st.conflictReason = "conflicting shard requirements: ContractShard"
		case signature.CUserAddr:
			st.param = con.Param
			st.paramIsSender = con.Param == ast.SenderParam || con.Param == ast.OriginParam
			st.dsReason = "unresolvable UserAddr parameter " + con.Param
		case signature.CNoAliases:
			st.a, st.b = con.A, con.B
		case signature.COwns:
			st.conflictReason = "conflicting shard requirements: Owns(" + con.Field.String() + ")"
			switch {
			case len(con.Field.Keys) == 0:
				st.owns = ownsContract
			case con.Field.Keys[0] == ast.SenderParam || con.Field.Keys[0] == ast.OriginParam:
				st.owns = ownsSender
			default:
				st.owns = ownsParam
				st.ownKey = con.Field.Keys[0]
			}
		}
		p.steps = append(p.steps, st)
	}
	return p
}

// argOf resolves one named parameter against a transaction, including
// the implicit _sender/_origin/_amount (which take precedence over
// explicit arguments, as in the transition environment).
func argOf(tx *chain.Tx, name string) (value.Value, bool) {
	switch name {
	case ast.SenderParam, ast.OriginParam:
		return tx.From.Value(), true
	case ast.AmountParam:
		return value.Int{Ty: ast.TyUint128, V: tx.Amount}, true
	}
	v, ok := tx.Args[name]
	return v, ok
}

// eval runs the compiled plan against a concrete transaction,
// implementing dispatch_oc(T, x). It reads only immutable transaction
// data and the account table.
func (p *plan) eval(d *Dispatcher, tx *chain.Tx) Routing {
	const unset = -2
	required := unset
	force := func(s int) bool {
		if required == unset || required == s {
			required = s
			return true
		}
		return false
	}

	for i := range p.steps {
		st := &p.steps[i]
		switch st.kind {
		case signature.CBottom:
			return dsRouting(reasonBottom)
		case signature.CSenderShard:
			if !force(chain.ShardOf(tx.From, d.NumShards)) {
				return dsRouting(st.conflictReason)
			}
		case signature.CContractShard:
			if !force(chain.ShardOf(tx.To, d.NumShards)) {
				return dsRouting(st.conflictReason)
			}
		case signature.CUserAddr:
			var addr chain.Address
			if st.paramIsSender {
				addr = tx.From
			} else {
				v, ok := tx.Args[st.param]
				if !ok {
					return dsRouting(st.dsReason)
				}
				addr, ok = chain.AddressFromValue(v)
				if !ok {
					return dsRouting(reasonNonAddrUser)
				}
			}
			if d.Accounts.IsContract(addr) {
				return dsRouting(reasonContractRcpt)
			}
		case signature.CNoAliases:
			alias, ok := sameKeys(tx, st.a, st.b)
			if !ok {
				return dsRouting(reasonNoAliasUnres)
			}
			if alias {
				return dsRouting(reasonAliasKeys)
			}
		case signature.COwns:
			var s int
			switch st.owns {
			case ownsContract:
				s = chain.ShardOf(tx.To, d.NumShards)
			case ownsSender:
				s = chain.ShardOf(tx.From, d.NumShards)
			default:
				v, ok := argOf(tx, st.ownKey)
				if !ok {
					return dsRouting(reasonOwnsUnres)
				}
				if addr, ok := chain.AddressFromValue(v); ok {
					s = chain.ShardOf(addr, d.NumShards)
				} else {
					s = chain.ShardOfKey(value.CanonicalKey(v), d.NumShards)
				}
			}
			if !force(s) {
				return dsRouting(st.conflictReason)
			}
		}
	}

	if required == unset {
		// Fully unconstrained transactions (e.g. commutative-only
		// writers like FT Mint) may run anywhere; the commit step
		// places them on the least-loaded shard.
		return Routing{Decision: Decision{Reason: reasonSatisfied}, Unconstrained: true}
	}
	return Routing{Decision: Decision{Shard: required, Reason: reasonSatisfied}}
}

// resolveKeyComponent resolves one symbolic key component. Address
// values (including the implicit _sender/_origin) come back as a bare
// chain.Address so the common case compares without canonicalising.
func resolveKeyComponent(tx *chain.Tx, name string) (addr chain.Address, isAddr bool, v value.Value, ok bool) {
	switch name {
	case ast.SenderParam, ast.OriginParam:
		return tx.From, true, nil, true
	case ast.AmountParam:
		return chain.Address{}, false, value.Int{Ty: ast.TyUint128, V: tx.Amount}, true
	}
	v, found := tx.Args[name]
	if !found {
		return chain.Address{}, false, nil, false
	}
	if a, isA := chain.AddressFromValue(v); isA {
		return a, true, nil, true
	}
	return chain.Address{}, false, v, true
}

// sameKeys reports whether the two symbolic key vectors resolve to the
// same concrete key vector (canonical-key equality, component-wise;
// two 20-byte ByStr keys are canonical-key-equal iff their bytes are,
// so address components compare directly). ok is false when any
// component is unresolvable.
func sameKeys(tx *chain.Tx, a, b []string) (alias, ok bool) {
	if len(a) != len(b) {
		return false, true
	}
	for i := range a {
		aa, aIsAddr, av, ok1 := resolveKeyComponent(tx, a[i])
		ba, bIsAddr, bv, ok2 := resolveKeyComponent(tx, b[i])
		if !ok1 || !ok2 {
			return false, false
		}
		if aIsAddr != bIsAddr {
			// A canonical address key never collides with a
			// non-address canonical key (distinct type prefixes).
			return false, true
		}
		if aIsAddr {
			if aa != ba {
				return false, true
			}
			continue
		}
		if value.CanonicalKey(av) != value.CanonicalKey(bv) {
			return false, true
		}
	}
	return true, true
}

func dsRouting(reason string) Routing {
	return Routing{Decision: Decision{Shard: DS, Reason: reason}}
}
