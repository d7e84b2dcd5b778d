// Package domain implements the CoSplit abstract domain of Fig. 6 in
// the paper: contribution sources, cardinalities, operation sets, the
// precision lattice, and contribution types τ with the ⊕ (add),
// ⊔ (join) and ⊗ (scale) operators.
package domain

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Card is the cardinality domain {0, 1, ω} from Fig. 6, ordered
// 0 ⊑ 1 ⊑ ω. It tracks how many times a contribution source flows into
// a value; linearity (card 1) is what makes `x + amount` commute while
// `x + x + 1` does not.
type Card int

// Cardinality values.
const (
	Card0 Card = iota
	Card1
	CardOmega
)

func (c Card) String() string {
	switch c {
	case Card0:
		return "0"
	case Card1:
		return "1"
	default:
		return "ω"
	}
}

// Plus is the ⊕ operation: 0 ⊕ α = α, 1 ⊕ 1 = ω, α ⊕ ω = ω.
func (c Card) Plus(d Card) Card {
	switch {
	case c == Card0:
		return d
	case d == Card0:
		return c
	default:
		return CardOmega
	}
}

// Join is the ⊔ operation: the maximum in the 0 ⊑ 1 ⊑ ω order.
func (c Card) Join(d Card) Card {
	if c > d {
		return c
	}
	return d
}

// Times is the ⊗ operation: 0 ⊗ α = 0, 1 ⊗ 1 = 1, α ⊗ ω = ω (α ≠ 0).
func (c Card) Times(d Card) Card {
	if c == Card0 || d == Card0 {
		return Card0
	}
	if c == Card1 && d == Card1 {
		return Card1
	}
	return CardOmega
}

// Precision records whether a contribution type lost precision when
// joining control flows (Exact ⊑ Inexact).
type Precision int

// Precision values.
const (
	Exact Precision = iota
	Inexact
)

func (p Precision) String() string {
	if p == Exact {
		return "Exact"
	}
	return "Inexact"
}

// Join returns the least upper bound of two precisions.
func (p Precision) Join(q Precision) Precision {
	if p > q {
		return p
	}
	return q
}

// CondOp is the pseudo-operation recorded by AdaptC when a value's
// control flow depends on a source (Fig. 7, MatchC).
const CondOp = "Cond"

// FieldRef names a contract field or a map pseudo-field such as
// balances[_sender] or allowances[from][_sender]. Keys are the names of
// the transition parameters used to index into the map.
type FieldRef struct {
	Name string
	Keys []string
}

// String renders the reference in the paper's f / m[k] notation.
func (f FieldRef) String() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	for _, k := range f.Keys {
		sb.WriteString("[" + k + "]")
	}
	return sb.String()
}

// Equal reports structural equality.
func (f FieldRef) Equal(o FieldRef) bool {
	if f.Name != o.Name || len(f.Keys) != len(o.Keys) {
		return false
	}
	for i := range f.Keys {
		if f.Keys[i] != o.Keys[i] {
			return false
		}
	}
	return true
}

// SrcKind classifies contribution sources (cs in Fig. 6).
type SrcKind int

// Source kinds. SrcParam is a transition parameter (user input, constant
// with respect to contract state); SrcFormal is a function's formal
// parameter, substituted away at application time.
const (
	SrcField SrcKind = iota
	SrcConst
	SrcParam
	SrcFormal
)

// Source is a contribution source.
type Source struct {
	Kind  SrcKind
	Field FieldRef // for SrcField
	Name  string   // parameter/formal name, or constant rendering
}

// Key returns a canonical map key for the source.
func (s Source) Key() string {
	switch s.Kind {
	case SrcField:
		return "F:" + s.Field.String()
	case SrcConst:
		return "C:" + s.Name
	case SrcParam:
		return "P:" + s.Name
	default:
		return "X:" + s.Name
	}
}

func (s Source) String() string {
	switch s.Kind {
	case SrcField:
		return "Field " + s.Field.String()
	case SrcConst:
		return "Const " + s.Name
	case SrcParam:
		return "Param " + s.Name
	default:
		return "Formal " + s.Name
	}
}

// FieldSource builds a field (or pseudo-field) contribution source.
func FieldSource(f FieldRef) Source { return Source{Kind: SrcField, Field: f} }

// ConstSource builds a constant contribution source.
func ConstSource(render string) Source { return Source{Kind: SrcConst, Name: render} }

// ParamSource builds a transition-parameter contribution source.
func ParamSource(name string) Source { return Source{Kind: SrcParam, Name: name} }

// FormalSource builds a function-formal contribution source.
func FormalSource(name string) Source { return Source{Kind: SrcFormal, Name: name} }

// SrcContrib is the (cardinality, operations) pair attached to a source
// in a contribution type.
type SrcContrib struct {
	Src  Source
	Card Card
	Ops  map[string]bool
}

func copyOps(ops map[string]bool) map[string]bool {
	out := make(map[string]bool, len(ops))
	for k := range ops {
		out[k] = true
	}
	return out
}

func opsUnion(a, b map[string]bool) map[string]bool {
	out := copyOps(a)
	for k := range b {
		out[k] = true
	}
	return out
}

func opsString(ops map[string]bool) string {
	if len(ops) == 0 {
		return "∅"
	}
	names := make([]string, 0, len(ops))
	for k := range ops {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// MsgContrib is the per-entry contribution map of a message payload
// flowing through a value; it lets the analysis recover the _amount and
// _recipient contributions at `send` statements.
type MsgContrib map[string]*Contrib

// FunContrib is the deferred body of a function contribution (EFun i τ
// in Fig. 6).
type FunContrib struct {
	Formal string
	Body   *Contrib
}

// Contrib is a contribution type τ (Fig. 6). Exactly one of the
// following shapes holds:
//   - Top: the uninformative type ⊤;
//   - Fun != nil: an arrow type EFun i τ;
//   - Native: an opaque native function (applications smear);
//   - otherwise: a source map ⟨cs ↦ (card, ops), p⟩.
type Contrib struct {
	Top     bool
	Native  bool
	Fun     *FunContrib
	Sources map[string]SrcContrib
	Prec    Precision
	// Msgs carries the message payloads embedded in this value.
	Msgs []MsgContrib
	// LitInt is the exact integer value when the contribution is a
	// single integer literal (used to recognise zero-valued _amount).
	LitInt *big.Int
}

// Bot returns the empty contribution (⊥: no sources).
func Bot() *Contrib {
	return &Contrib{Sources: map[string]SrcContrib{}, Prec: Exact}
}

// Top returns the uninformative contribution ⊤.
func Top() *Contrib { return &Contrib{Top: true} }

// NewNative returns an opaque native-function contribution.
func NewNative() *Contrib { return &Contrib{Native: true, Sources: map[string]SrcContrib{}} }

// Single returns a contribution with one linear source and no ops.
func Single(s Source) *Contrib {
	c := Bot()
	c.Sources[s.Key()] = SrcContrib{Src: s, Card: Card1, Ops: map[string]bool{}}
	return c
}

// SingleLit returns a literal contribution, remembering its integer
// value when applicable.
func SingleLit(render string, intVal *big.Int) *Contrib {
	c := Single(ConstSource(render))
	if intVal != nil {
		c.LitInt = new(big.Int).Set(intVal)
	}
	return c
}

// NewFun returns an arrow contribution EFun formal body.
func NewFun(formal string, body *Contrib) *Contrib {
	return &Contrib{Fun: &FunContrib{Formal: formal, Body: body}, Sources: map[string]SrcContrib{}}
}

// Copy deep-copies the contribution.
func (c *Contrib) Copy() *Contrib {
	if c == nil {
		return nil
	}
	out := &Contrib{Top: c.Top, Native: c.Native, Prec: c.Prec}
	if c.Fun != nil {
		out.Fun = &FunContrib{Formal: c.Fun.Formal, Body: c.Fun.Body.Copy()}
	}
	out.Sources = make(map[string]SrcContrib, len(c.Sources))
	for k, sc := range c.Sources {
		out.Sources[k] = SrcContrib{Src: sc.Src, Card: sc.Card, Ops: copyOps(sc.Ops)}
	}
	for _, m := range c.Msgs {
		mc := make(MsgContrib, len(m))
		for k, v := range m {
			mc[k] = v.Copy()
		}
		out.Msgs = append(out.Msgs, mc)
	}
	if c.LitInt != nil {
		out.LitInt = new(big.Int).Set(c.LitInt)
	}
	return out
}

// IsBot reports whether the contribution is empty (⊥).
func (c *Contrib) IsBot() bool {
	return c != nil && !c.Top && !c.Native && c.Fun == nil &&
		len(c.Sources) == 0 && len(c.Msgs) == 0
}

// Add is the ⊕ operation lifted to contribution types: cardinalities of
// matching sources are added, their operation sets unioned, and the
// precisions joined.
func Add(a, b *Contrib) *Contrib {
	if a == nil {
		return b.Copy()
	}
	if b == nil {
		return a.Copy()
	}
	if a.Top || b.Top {
		return Top()
	}
	if a.Fun != nil || b.Fun != nil || a.Native || b.Native {
		// Mixing function values with data flows is out of the fragment
		// the analysis tracks precisely.
		if a.IsBot() {
			return b.Copy()
		}
		if b.IsBot() {
			return a.Copy()
		}
		return Top()
	}
	out := a.Copy()
	out.Prec = a.Prec.Join(b.Prec)
	for k, sc := range b.Sources {
		if have, ok := out.Sources[k]; ok {
			out.Sources[k] = SrcContrib{
				Src:  have.Src,
				Card: have.Card.Plus(sc.Card),
				Ops:  opsUnion(have.Ops, sc.Ops),
			}
		} else {
			out.Sources[k] = SrcContrib{Src: sc.Src, Card: sc.Card, Ops: copyOps(sc.Ops)}
		}
	}
	for _, m := range b.Msgs {
		out.Msgs = append(out.Msgs, m)
	}
	// Adding two values loses literal identity unless one side is ⊥.
	switch {
	case b.IsBot():
		// keep a's LitInt
	case a.IsBot():
		if b.LitInt != nil {
			out.LitInt = new(big.Int).Set(b.LitInt)
		} else {
			out.LitInt = nil
		}
	default:
		out.LitInt = nil
	}
	return out
}

// Join is the ⊔ operation lifted to contribution types: cardinalities
// of matching sources are joined (missing sources have cardinality 0),
// operation sets unioned, precisions joined.
func Join(a, b *Contrib) *Contrib {
	if a == nil {
		return b.Copy()
	}
	if b == nil {
		return a.Copy()
	}
	if a.Top || b.Top {
		return Top()
	}
	if a.Fun != nil || b.Fun != nil || a.Native || b.Native {
		if a.IsBot() {
			return b.Copy()
		}
		if b.IsBot() {
			return a.Copy()
		}
		return Top()
	}
	out := a.Copy()
	out.Prec = a.Prec.Join(b.Prec)
	for k, sc := range b.Sources {
		if have, ok := out.Sources[k]; ok {
			out.Sources[k] = SrcContrib{
				Src:  have.Src,
				Card: have.Card.Join(sc.Card),
				Ops:  opsUnion(have.Ops, sc.Ops),
			}
		} else {
			out.Sources[k] = SrcContrib{Src: sc.Src, Card: sc.Card, Ops: copyOps(sc.Ops)}
		}
	}
	for _, m := range b.Msgs {
		out.Msgs = append(out.Msgs, m)
	}
	if a.LitInt == nil || b.LitInt == nil || a.LitInt.Cmp(b.LitInt) != 0 {
		out.LitInt = nil
	}
	return out
}

// Scale is the ⊗ operation: it multiplies every source's cardinality by
// card and extends every source's operation set with ops. Message
// payloads and literal identity survive only a neutral scaling
// (card = 1, no ops).
func Scale(c *Contrib, card Card, ops map[string]bool) *Contrib {
	if c == nil {
		return nil
	}
	if c.Top {
		return Top()
	}
	out := c.Copy()
	if c.Fun != nil {
		out.Fun = &FunContrib{Formal: c.Fun.Formal, Body: Scale(c.Fun.Body, card, ops)}
		return out
	}
	for k, sc := range out.Sources {
		out.Sources[k] = SrcContrib{
			Src:  sc.Src,
			Card: sc.Card.Times(card),
			Ops:  opsUnion(sc.Ops, ops),
		}
	}
	if card != Card1 || len(ops) > 0 {
		out.Msgs = nil
		out.LitInt = nil
	}
	return out
}

// WithOp returns the contribution with builtin op blt recorded on every
// source (the Builtin rule of Fig. 7: "τ' with ops += blt").
func (c *Contrib) WithOp(op string) *Contrib {
	return Scale(c, Card1, map[string]bool{op: true})
}

// Subst substitutes the formal parameter named formal with the
// argument's contribution: each occurrence Formal(formal) ↦ (card, ops)
// becomes arg ⊗ (card, ops), merged with ⊕ into the remainder.
func Subst(body *Contrib, formal string, arg *Contrib) *Contrib {
	if body == nil {
		return nil
	}
	if body.Top {
		return Top()
	}
	out := body.Copy()
	if out.Fun != nil {
		out.Fun = &FunContrib{Formal: out.Fun.Formal, Body: Subst(out.Fun.Body, formal, arg)}
	}
	key := FormalSource(formal).Key()
	if sc, ok := out.Sources[key]; ok {
		delete(out.Sources, key)
		scaled := Scale(arg, sc.Card, sc.Ops)
		// If the body was exactly the formal, the value IS the argument:
		// preserve messages and literal identity.
		if len(out.Sources) == 0 && out.Fun == nil && len(out.Msgs) == 0 {
			scaled.Prec = scaled.Prec.Join(out.Prec)
			return scaled
		}
		merged := Add(out, scaled)
		return merged
	}
	for i, m := range out.Msgs {
		nm := make(MsgContrib, len(m))
		for k, v := range m {
			nm[k] = Subst(v, formal, arg)
		}
		out.Msgs[i] = nm
	}
	return out
}

// Apply models function application (the App rule of Fig. 7). Applying
// an arrow type substitutes the formal; applying a native or unknown
// function smears: the result is the ⊕ of the function's and the
// argument's contributions with cardinality ω and Inexact precision.
func Apply(fn, arg *Contrib) *Contrib {
	if fn == nil || fn.Top {
		return Top()
	}
	if fn.Fun != nil {
		return Subst(fn.Fun.Body, fn.Fun.Formal, arg)
	}
	// Native or first-class unknown function: conservative smear of the
	// function's own sources and the argument's, all at cardinality ω.
	fnPart := fn.Copy()
	fnPart.Native = false
	fnPart.Fun = nil
	smeared := Add(Scale(fnPart, CardOmega, nil), Scale(arg, CardOmega, nil))
	if smeared.Top {
		return smeared
	}
	smeared.Prec = Inexact
	return smeared
}

// FieldSources returns the field sources present in the contribution,
// sorted by rendering.
func (c *Contrib) FieldSources() []SrcContrib {
	var out []SrcContrib
	for _, sc := range c.Sources {
		if sc.Src.Kind == SrcField {
			out = append(out, sc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Src.Key() < out[j].Src.Key()
	})
	return out
}

// String renders the contribution in the paper's ⟨cs ↦ (card, ops), p⟩
// notation.
func (c *Contrib) String() string {
	if c == nil {
		return "⊥"
	}
	if c.Top {
		return "⊤"
	}
	if c.Native {
		return "<native>"
	}
	if c.Fun != nil {
		return fmt.Sprintf("EFun %s %s", c.Fun.Formal, c.Fun.Body.String())
	}
	if len(c.Sources) == 0 {
		return "⟨∅, " + c.Prec.String() + "⟩"
	}
	keys := make([]string, 0, len(c.Sources))
	for k := range c.Sources {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("⟨")
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sc := c.Sources[k]
		fmt.Fprintf(&sb, "%s ↦ (%s, {%s})", sc.Src, sc.Card, opsString(sc.Ops))
	}
	fmt.Fprintf(&sb, ", %s⟩", c.Prec)
	return sb.String()
}

// MarkFieldConst converts contributions from the given fields into
// constant sources (Algorithm 3.1: MarkConstantsInTypes). Fields are
// matched by name, covering all pseudo-fields of the field.
func (c *Contrib) MarkFieldConst(fields map[string]bool) *Contrib {
	if c == nil || c.Top {
		return c
	}
	out := c.Copy()
	for k, sc := range c.Sources {
		if sc.Src.Kind == SrcField && fields[sc.Src.Field.Name] {
			delete(out.Sources, k)
			ns := ConstSource("field:" + sc.Src.Field.String())
			nk := ns.Key()
			if have, ok := out.Sources[nk]; ok {
				out.Sources[nk] = SrcContrib{Src: ns, Card: have.Card.Plus(sc.Card), Ops: opsUnion(have.Ops, sc.Ops)}
			} else {
				out.Sources[nk] = SrcContrib{Src: ns, Card: sc.Card, Ops: copyOps(sc.Ops)}
			}
		}
	}
	if out.Fun != nil {
		out.Fun = &FunContrib{Formal: out.Fun.Formal, Body: out.Fun.Body.MarkFieldConst(fields)}
	}
	for i, m := range out.Msgs {
		nm := make(MsgContrib, len(m))
		for k, v := range m {
			nm[k] = v.MarkFieldConst(fields)
		}
		out.Msgs[i] = nm
	}
	return out
}

// IsZeroLit reports whether the contribution is statically the integer
// literal zero.
func (c *Contrib) IsZeroLit() bool {
	return c != nil && c.LitInt != nil && c.LitInt.Sign() == 0
}

// SingleParam returns the parameter name if the contribution is exactly
// one linear, op-free transition parameter.
func (c *Contrib) SingleParam() (string, bool) {
	if c == nil || c.Top || c.Fun != nil || c.Native || len(c.Sources) != 1 {
		return "", false
	}
	for _, sc := range c.Sources {
		if sc.Src.Kind == SrcParam && sc.Card == Card1 && len(sc.Ops) == 0 {
			return sc.Src.Name, true
		}
	}
	return "", false
}
