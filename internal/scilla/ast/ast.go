package ast

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// Expr is the interface implemented by all expression nodes (Fig. 4).
type Expr interface {
	expr()
	Position() Pos
}

type ExprBase struct{ Pos Pos }

func (e ExprBase) expr()         {}
func (e ExprBase) Position() Pos { return e.Pos }

// LitExpr is a literal expression, `val v`.
type LitExpr struct {
	ExprBase
	Lit Literal
}

// VarExpr is a variable occurrence, `var i`.
type VarExpr struct {
	ExprBase
	Name string
}

// MsgEntry is one `key : value` pair in a message or event expression.
// Value is an identifier or a literal.
type MsgEntry struct {
	Key string
	// Var is the identifier payload, set iff IsLit is false.
	Var string
	// Lit is the literal payload, set iff IsLit is true.
	Lit   Literal
	IsLit bool
}

// MsgExpr constructs a message or event, `{_tag : ...; _recipient : ...}`.
type MsgExpr struct {
	ExprBase
	Entries []MsgEntry
}

// ConstrExpr applies a data constructor, `constr c {targs} args`.
type ConstrExpr struct {
	ExprBase
	Name     string
	TypeArgs []Type
	Args     []string
}

// BuiltinExpr applies a builtin operation, `builtin blt args`.
type BuiltinExpr struct {
	ExprBase
	Name string
	Args []string
}

// LetExpr is `let i = e1 in e2`.
type LetExpr struct {
	ExprBase
	Name  string
	Ty    Type // optional annotation, may be nil
	Bound Expr
	Body  Expr
}

// FunExpr is `fun (i : t) => e`.
type FunExpr struct {
	ExprBase
	Param     string
	ParamType Type
	Body      Expr
}

// AppExpr is `app f a1 .. an` (application of an identifier to identifiers).
type AppExpr struct {
	ExprBase
	Func string
	Args []string
}

// MatchArm is a single `| pat => e` clause of a match expression.
type MatchArm struct {
	Pat  Pattern
	Body Expr
}

// MatchExpr is `match i with | pat => e ... end`.
type MatchExpr struct {
	ExprBase
	Scrutinee string
	Arms      []MatchArm
}

// TFunExpr is a type abstraction, `tfun 'A => e`.
type TFunExpr struct {
	ExprBase
	TVar string
	Body Expr
}

// TAppExpr is a type instantiation, `@f T1 .. Tn` (inst i t in Fig. 4).
type TAppExpr struct {
	ExprBase
	Name     string
	TypeArgs []Type
}

// Pattern is the interface implemented by all pattern nodes.
type Pattern interface{ pat() }

// WildPat is the wildcard pattern `_`.
type WildPat struct{}

func (WildPat) pat() {}

// BindPat binds the scrutinee (or sub-value) to a name.
type BindPat struct{ Name string }

func (BindPat) pat() {}

// ConstrPat matches a constructor application, `constr c p1 .. pn`.
type ConstrPat struct {
	Name string
	Sub  []Pattern
}

func (ConstrPat) pat() {}

// Stmt is the interface implemented by all statement nodes (Fig. 4).
type Stmt interface {
	stmt()
	Position() Pos
}

type StmtBase struct{ Pos Pos }

func (s StmtBase) stmt()         {}
func (s StmtBase) Position() Pos { return s.Pos }

// LoadStmt is `x <- f`, reading a whole contract field.
type LoadStmt struct {
	StmtBase
	Lhs   string
	Field string
}

// StoreStmt is `f := x`, overwriting a whole contract field.
type StoreStmt struct {
	StmtBase
	Field string
	Rhs   string
}

// BindStmt is `x = e`, binding a pure expression.
type BindStmt struct {
	StmtBase
	Lhs  string
	Expr Expr
}

// MapUpdateStmt is `m[k1]..[kn] := v`.
type MapUpdateStmt struct {
	StmtBase
	Map  string
	Keys []string
	Rhs  string
}

// MapGetStmt is `x <- m[k1]..[kn]` (Exists=false, yields Option) or
// `x <- exists m[k1]..[kn]` (Exists=true, yields Bool).
type MapGetStmt struct {
	StmtBase
	Lhs    string
	Map    string
	Keys   []string
	Exists bool
}

// MapDeleteStmt is `delete m[k1]..[kn]`.
type MapDeleteStmt struct {
	StmtBase
	Map  string
	Keys []string
}

// ReadBlockchainStmt is `x <- &NAME`, reading blockchain metadata
// (e.g. BLOCKNUMBER).
type ReadBlockchainStmt struct {
	StmtBase
	Lhs  string
	Name string
}

// StmtMatchArm is a single `| pat => stmts` clause of a match statement.
type StmtMatchArm struct {
	Pat  Pattern
	Body []Stmt
}

// MatchStmt is `match x with | pat => stmts ... end`.
type MatchStmt struct {
	StmtBase
	Scrutinee string
	Arms      []StmtMatchArm
}

// AcceptStmt is `accept`, accepting the incoming native token amount.
type AcceptStmt struct{ StmtBase }

// SendStmt is `send msgs`, emitting a list of messages.
type SendStmt struct {
	StmtBase
	Arg string
}

// EventStmt is `event e`, emitting an event.
type EventStmt struct {
	StmtBase
	Arg string
}

// ThrowStmt is `throw` or `throw e`, aborting the transition.
type ThrowStmt struct {
	StmtBase
	Arg string // empty if no argument
}

// Param is a typed formal parameter of a transition or contract.
type Param struct {
	Name string
	Type Type
}

// Field is a mutable contract field with its declared type and initialiser.
type Field struct {
	Name string
	Type Type
	Init Expr
}

// Transition is a named state-transition with typed parameters and a body.
type Transition struct {
	Name   string
	Params []Param
	Body   []Stmt
	Pos    Pos
}

// LibDef is a library-level pure definition, `let i = e` (possibly
// type-annotated).
type LibDef struct {
	Name string
	Ty   Type // optional, may be nil
	Expr Expr
}

// ConstrDef declares one constructor of a user-defined ADT.
type ConstrDef struct {
	Name string
	Args []Type
}

// TypeDef declares a user-defined ADT: `type T = | C1 of t .. | C2`.
type TypeDef struct {
	Name    string
	Constrs []ConstrDef
}

// Library is the pure library section of a contract module.
type Library struct {
	Name  string
	Defs  []LibDef
	Types []TypeDef
}

// Contract is a deployable Scilla contract: immutable parameters,
// mutable fields, and transitions.
type Contract struct {
	Name        string
	Params      []Param
	Fields      []Field
	Transitions []Transition
}

// Module is a full Scilla source module: version, optional library,
// and the contract.
type Module struct {
	Version  int
	Lib      *Library
	Contract Contract
	// Source is the original source text, if parsed from text.
	Source string
}

// TransitionByName returns the transition with the given name, or nil.
func (c *Contract) TransitionByName(name string) *Transition {
	for i := range c.Transitions {
		if c.Transitions[i].Name == name {
			return &c.Transitions[i]
		}
	}
	return nil
}

// Implicit transition parameters present in every transition.
const (
	SenderParam = "_sender"
	OriginParam = "_origin"
	AmountParam = "_amount"
)

// Reserved message entry keys.
const (
	TagKey       = "_tag"
	RecipientKey = "_recipient"
	AmountKey    = "_amount"
	EventNameKey = "_eventname"
	ExceptionKey = "_exception"
)
