// Package signature implements the sharding-signature derivation of
// Sec. 3.5: ownership constraints (oc), per-field join operations (⊎f),
// and Algorithm 3.1, which turns transition effect summaries into a
// sharding signature for a developer-selected set of transitions.
package signature

import (
	"fmt"
	"sort"
	"strings"

	"cosplit/internal/core/domain"
)

// Join is a per-field state-delta join operation (Fig. 9, top).
type Join int

// Join operations. OwnOverwrite merges disjointly-owned overwrites
// (sharding strategy 1); IntMerge adds up integer deltas (strategy 2).
const (
	OwnOverwrite Join = iota
	IntMerge
)

// BalanceField is the implicit native-token balance pseudo-field; it is
// "written" by accept statements and funded sends, and read via
// `x <- _balance`.
const BalanceField = "_balance"

func (j Join) String() string {
	if j == IntMerge {
		return "IntMerge"
	}
	return "OwnOverwrite"
}

// ConstraintKind classifies ownership constraints (oc in Fig. 9).
type ConstraintKind int

// Constraint kinds.
const (
	COwns ConstraintKind = iota
	CUserAddr
	CNoAliases
	CSenderShard
	CContractShard
	CBottom
)

// Constraint is a static symbolic condition that must be satisfied at
// dispatch time for a transaction to execute in a shard.
type Constraint struct {
	Kind  ConstraintKind
	Field domain.FieldRef // COwns
	Param string          // CUserAddr: a transition parameter holding an address
	// A and B are the two symbolic key vectors of a CNoAliases
	// constraint; they must differ in at least one position at runtime.
	A, B []string
}

// String renders the constraint in the paper's notation.
func (c Constraint) String() string {
	switch c.Kind {
	case COwns:
		return "Owns(" + c.Field.String() + ")"
	case CUserAddr:
		return "UserAddr(" + c.Param + ")"
	case CNoAliases:
		return fmt.Sprintf("NoAliases(⟨%s⟩, ⟨%s⟩)", strings.Join(c.A, ","), strings.Join(c.B, ","))
	case CSenderShard:
		return "SenderShard"
	case CContractShard:
		return "ContractShard"
	default:
		return "⊥"
	}
}

func (c Constraint) key() string { return c.String() }

// Signature is a contract's sharding signature: the constraint set of
// each selected transition plus the per-field join dictionary.
type Signature struct {
	// Selected is the developer-chosen transition set, sorted.
	Selected []string
	// Constraints maps each selected transition to its constraints.
	Constraints map[string][]Constraint
	// Joins maps each written field to its join operation.
	Joins map[string]Join
	// WeakReads is the set of fields the developer accepted to read
	// possibly-stale values from (Sec. 4.2.3).
	WeakReads map[string]bool
	// StaleReads records the fields whose reads are actually weak under
	// the derived joins.
	StaleReads []string
	// CommutativeWrites maps a transition to the field refs it writes
	// commutatively (no ownership required).
	CommutativeWrites map[string][]domain.FieldRef
}

// isBottom reports whether the named transition cannot be sharded.
func (sg *Signature) isBottom(transition string) bool {
	for _, c := range sg.Constraints[transition] {
		if c.Kind == CBottom {
			return true
		}
	}
	return false
}

// String renders the whole signature.
func (sg *Signature) String() string {
	var sb strings.Builder
	for _, tr := range sg.Selected {
		fmt.Fprintf(&sb, "transition %s:\n", tr)
		for _, c := range sg.Constraints[tr] {
			fmt.Fprintf(&sb, "  %s\n", c)
		}
	}
	fields := make([]string, 0, len(sg.Joins))
	for f := range sg.Joins {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		fmt.Fprintf(&sb, "join %s: %s\n", f, sg.Joins[f])
	}
	return sb.String()
}

// Query is the developer's input to the solver (Fig. 11): which
// transitions to shard and which fields may be read weakly.
type Query struct {
	Transitions []string
	WeakReads   []string
	// DisableCommutativity restricts the solver to sharding strategy 1
	// (disjoint state ownership): every write requires ownership and
	// every join is OwnOverwrite. Used by the Sec. 5.2.3 ablation.
	DisableCommutativity bool
	// CoarseOwnership disables pseudo-fields: every Owns constraint is
	// widened to the whole field (no map keys), so any two transactions
	// touching the same map conflict. This is the DESIGN.md ablation
	// quantifying the value of the paper's fine-grained footprints.
	CoarseOwnership bool
}

// Derive implements Algorithm 3.1: it derives the sharding signature
// for the query from the transitions' effect summaries.
func Derive(summaries map[string]*domain.Summary, q Query) (*Signature, error) {
	selected := append([]string{}, q.Transitions...)
	sort.Strings(selected)
	sel := make(map[string]*domain.Summary, len(selected))
	for _, tr := range selected {
		s, ok := summaries[tr]
		if !ok {
			return nil, fmt.Errorf("no summary for transition %s", tr)
		}
		sel[tr] = s.Copy()
	}
	weak := make(map[string]bool, len(q.WeakReads))
	for _, f := range q.WeakReads {
		weak[f] = true
	}

	// Step 1: constant fields — fields never written by the selected
	// transitions. Their reads are non-effectful and their
	// contributions constant.
	written := map[string]bool{}
	readOrMentioned := map[string]bool{}
	for _, s := range sel {
		for _, e := range s.Effects {
			switch e.Kind {
			case domain.EffWrite:
				written[e.Field.Name] = true
			case domain.EffRead:
				readOrMentioned[e.Field.Name] = true
			case domain.EffAcceptFunds:
				// accept modifies the implicit native balance.
				written[BalanceField] = true
			case domain.EffSendMsg:
				if amt, ok := e.Msg["_amount"]; !ok || amt == nil || !amt.IsZeroLit() {
					written[BalanceField] = true
				}
			}
		}
	}
	balanceWritten := written[BalanceField]
	cfs := map[string]bool{}
	for f := range readOrMentioned {
		if !written[f] {
			cfs[f] = true
		}
	}
	for _, s := range sel {
		var kept []domain.Effect
		for _, e := range s.Effects {
			if e.Kind == domain.EffRead && cfs[e.Field.Name] {
				continue
			}
			kept = append(kept, markConst(e, cfs))
		}
		s.Effects = kept
	}

	// Steps 2-4: local commutative writes consolidated globally into
	// per-field joins, spurious reads removed, then the weak-read check
	// (Sec. 4.2.3): fields whose remaining reads would observe stale
	// values without developer acceptance are demoted to OwnOverwrite,
	// and the pipeline reruns until stable.
	demoted := map[string]bool{}
	if q.DisableCommutativity {
		for _, s := range sel {
			for _, e := range s.Effects {
				if e.Kind == domain.EffWrite {
					demoted[e.Field.Name] = true
				}
			}
		}
		demoted[BalanceField] = true
	}
	var joins map[string]Join
	var cws map[string]map[int]bool // transition -> write effect index set
	var stale []string
	var work map[string]*domain.Summary
	for {
		joins, cws = consolidateJoins(sel, selected, demoted)
		if balanceWritten && !demoted[BalanceField] {
			// Native-balance changes (accept / funded sends) are
			// per-account deltas merged commutatively by the protocol.
			joins[BalanceField] = IntMerge
		}
		work = make(map[string]*domain.Summary, len(sel))
		for tr, s := range sel {
			work[tr] = s.Copy()
		}
		removeSpuriousReads(work, selected, cws)
		stale = staleReads(work, selected, joins, cws)
		changed := false
		for _, f := range stale {
			if !weak[f] && !demoted[f] {
				demoted[f] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sel = work

	// Step 5: translate effects into constraints.
	sg := &Signature{
		Selected:          selected,
		Constraints:       make(map[string][]Constraint),
		Joins:             joins,
		WeakReads:         weak,
		StaleReads:        stale,
		CommutativeWrites: make(map[string][]domain.FieldRef),
	}
	for _, tr := range selected {
		s := sel[tr]
		cs := genConstraints(s, cws[tr])
		if q.CoarseOwnership {
			cs = coarsen(cs)
		}
		sg.Constraints[tr] = cs
		var comm []domain.FieldRef
		for i, e := range s.Effects {
			if e.Kind == domain.EffWrite && cws[tr][i] {
				comm = append(comm, e.Field)
			}
		}
		sg.CommutativeWrites[tr] = comm
	}
	return sg, nil
}

// markConst rewrites an effect's contributions, turning sources from
// constant fields into constants.
func markConst(e domain.Effect, cfs map[string]bool) domain.Effect {
	if len(cfs) == 0 {
		return e
	}
	out := e
	if e.C != nil {
		out.C = e.C.MarkFieldConst(cfs)
	}
	if e.Msg != nil {
		nm := make(domain.MsgContrib, len(e.Msg))
		for k, v := range e.Msg {
			nm[k] = v.MarkFieldConst(cfs)
		}
		out.Msg = nm
	}
	return out
}

// commutativeOps is the operation set compatible with IntMerge.
var commutativeOps = map[string]bool{"add": true, "sub": true}

// IsCommutativeWrite reports whether a Write effect commutes: the
// written value's only field source is the written field itself,
// linearly (cardinality 1) combined via add/sub, with Exact precision;
// every other source is a constant or a transition parameter.
func IsCommutativeWrite(e domain.Effect) bool {
	if e.Kind != domain.EffWrite || e.C == nil || e.C.Top || e.C.Fun != nil {
		return false
	}
	if e.C.Prec != domain.Exact {
		return false
	}
	sawSelf := false
	for _, sc := range e.C.Sources {
		switch sc.Src.Kind {
		case domain.SrcField:
			if !sc.Src.Field.Equal(e.Field) {
				return false
			}
			if sc.Card != domain.Card1 {
				return false
			}
			if len(sc.Ops) == 0 {
				return false
			}
			for op := range sc.Ops {
				if !commutativeOps[op] {
					return false
				}
			}
			sawSelf = true
		case domain.SrcConst, domain.SrcParam:
			// Constants and user inputs are per-transaction constants.
		default:
			return false
		}
	}
	return sawSelf
}

// consolidateJoins computes, per field, whether all selected writes
// commute (IntMerge) or not (OwnOverwrite); demoted fields are forced
// to OwnOverwrite. Returns the join table and the per-transition set of
// commutative write effect indices.
func consolidateJoins(sel map[string]*domain.Summary, order []string, demoted map[string]bool) (map[string]Join, map[string]map[int]bool) {
	allComm := map[string]bool{}
	seen := map[string]bool{}
	for _, tr := range order {
		for _, e := range sel[tr].Effects {
			if e.Kind != domain.EffWrite {
				continue
			}
			f := e.Field.Name
			if !seen[f] {
				seen[f] = true
				allComm[f] = true
			}
			if !IsCommutativeWrite(e) {
				allComm[f] = false
			}
		}
	}
	joins := make(map[string]Join)
	for f := range seen {
		if allComm[f] && !demoted[f] {
			joins[f] = IntMerge
		} else {
			joins[f] = OwnOverwrite
		}
	}
	cws := make(map[string]map[int]bool)
	for _, tr := range order {
		set := map[int]bool{}
		for i, e := range sel[tr].Effects {
			if e.Kind == domain.EffWrite && joins[e.Field.Name] == IntMerge && IsCommutativeWrite(e) {
				set[i] = true
			}
		}
		cws[tr] = set
	}
	return joins, cws
}

// staleReads returns the fields with an IntMerge join that are still
// read (directly or via conditions/messages) by a selected transition;
// such reads may observe stale values (Sec. 4.2.3). A commutative
// write's flow of the field into itself is exempt: under IntMerge the
// shard contributes an exact delta regardless of the locally observed
// value.
func staleReads(sel map[string]*domain.Summary, order []string, joins map[string]Join, cws map[string]map[int]bool) []string {
	staleSet := map[string]bool{}
	for _, tr := range order {
		for i, e := range sel[tr].Effects {
			switch e.Kind {
			case domain.EffRead:
				if joins[e.Field.Name] == IntMerge {
					staleSet[e.Field.Name] = true
				}
			case domain.EffCondition, domain.EffWrite:
				if e.C == nil || (e.Kind == domain.EffWrite && cws[tr][i]) {
					continue
				}
				for _, sc := range e.C.FieldSources() {
					if joins[sc.Src.Field.Name] == IntMerge {
						staleSet[sc.Src.Field.Name] = true
					}
				}
			case domain.EffSendMsg:
				for _, v := range e.Msg {
					for _, sc := range v.FieldSources() {
						if joins[sc.Src.Field.Name] == IntMerge {
							staleSet[sc.Src.Field.Name] = true
						}
					}
				}
			}
		}
	}
	out := make([]string, 0, len(staleSet))
	for f := range staleSet {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// removeSpuriousReads drops Read effects whose pseudo-field flows only
// into commutative writes (footnote 5: Condition effects protect reads
// that affect control flow).
func removeSpuriousReads(sel map[string]*domain.Summary, order []string, cws map[string]map[int]bool) {
	for _, tr := range order {
		s := sel[tr]
		protected := map[string]bool{} // field-ref renderings that must stay owned
		inCws := map[string]bool{}
		for i, e := range s.Effects {
			switch e.Kind {
			case domain.EffCondition:
				for _, sc := range e.C.FieldSources() {
					protected[sc.Src.Field.String()] = true
				}
			case domain.EffSendMsg:
				for _, v := range e.Msg {
					for _, sc := range v.FieldSources() {
						protected[sc.Src.Field.String()] = true
					}
				}
			case domain.EffWrite:
				if cws[tr][i] {
					for _, sc := range e.C.FieldSources() {
						inCws[sc.Src.Field.String()] = true
					}
				} else if e.C != nil {
					for _, sc := range e.C.FieldSources() {
						protected[sc.Src.Field.String()] = true
					}
				}
			}
		}
		var kept []domain.Effect
		newSet := map[int]bool{}
		for i, e := range s.Effects {
			if e.Kind == domain.EffRead {
				key := e.Field.String()
				if inCws[key] && !protected[key] {
					continue
				}
			}
			if cws[tr][i] {
				newSet[len(kept)] = true
			}
			kept = append(kept, e)
		}
		cws[tr] = newSet
		s.Effects = kept
	}
}

// coarsen widens every keyed Owns constraint to whole-field ownership
// and drops the then-redundant NoAliases preconditions.
func coarsen(cs []Constraint) []Constraint {
	var out []Constraint
	seen := map[string]bool{}
	for _, c := range cs {
		switch c.Kind {
		case COwns:
			c.Field = domain.FieldRef{Name: c.Field.Name}
			if seen[c.Field.Name] {
				continue
			}
			seen[c.Field.Name] = true
		case CNoAliases:
			continue
		}
		out = append(out, c)
	}
	return out
}

// genConstraints translates one transition's (rewritten) summary into
// its constraint set via the Fig. 9 mapping.
func genConstraints(s *domain.Summary, comm map[int]bool) []Constraint {
	var cs []Constraint
	add := func(c Constraint) { cs = append(cs, c) }

	// Environment constraints.
	for _, e := range s.Effects {
		switch e.Kind {
		case domain.EffTop:
			return []Constraint{{Kind: CBottom}}
		case domain.EffAcceptFunds:
			add(Constraint{Kind: CSenderShard})
		case domain.EffSendMsg:
			if e.Msg == nil {
				return []Constraint{{Kind: CBottom}}
			}
			// Any send must target a user account (a contract recipient
			// would be an inter-contract call).
			rcp, ok := e.Msg["_recipient"]
			if !ok {
				return []Constraint{{Kind: CBottom}}
			}
			p, isParam := rcp.SingleParam()
			if !isParam {
				return []Constraint{{Kind: CBottom}}
			}
			add(Constraint{Kind: CUserAddr, Param: p})
			amt := e.Msg["_amount"]
			if amt == nil || !amt.IsZeroLit() {
				// Funds leave the contract: the executing shard must
				// own the contract's native balance.
				add(Constraint{Kind: CContractShard})
			}
		}
	}

	// Aliasing preconditions: distinct symbolic key vectors into the
	// same map must not alias at runtime.
	type access struct {
		field string
		keys  []string
	}
	seenAcc := map[string]access{}
	var accOrder []string
	record := func(ref domain.FieldRef) {
		if len(ref.Keys) == 0 {
			return
		}
		k := ref.String()
		if _, ok := seenAcc[k]; !ok {
			seenAcc[k] = access{field: ref.Name, keys: ref.Keys}
			accOrder = append(accOrder, k)
		}
	}
	for _, e := range s.Effects {
		if e.Kind == domain.EffRead || e.Kind == domain.EffWrite {
			record(e.Field)
		}
	}
	for i := 0; i < len(accOrder); i++ {
		for j := i + 1; j < len(accOrder); j++ {
			a, b := seenAcc[accOrder[i]], seenAcc[accOrder[j]]
			if a.field != b.field || len(a.keys) != len(b.keys) {
				continue
			}
			add(Constraint{Kind: CNoAliases, A: a.keys, B: b.keys})
		}
	}

	// Ownership: every remaining read, and every non-commutative write.
	ownsSeen := map[string]bool{}
	owns := func(ref domain.FieldRef) {
		k := ref.String()
		if ownsSeen[k] {
			return
		}
		ownsSeen[k] = true
		add(Constraint{Kind: COwns, Field: ref})
	}
	for i, e := range s.Effects {
		switch e.Kind {
		case domain.EffRead:
			owns(e.Field)
		case domain.EffWrite:
			if !comm[i] {
				owns(e.Field)
			}
		}
	}

	// Deduplicate.
	seen := map[string]bool{}
	var out []Constraint
	for _, c := range cs {
		k := c.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}
