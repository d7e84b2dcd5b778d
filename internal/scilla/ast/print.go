package ast

import (
	"fmt"
	"strings"
)

// Printer renders AST nodes back into Scilla surface syntax. The output
// re-parses to a structurally identical module, which is exercised by the
// parser round-trip tests.
type Printer struct {
	sb     strings.Builder
	indent int
}

// PrintModule renders a full module.
func PrintModule(m *Module) string {
	var p Printer
	fmt.Fprintf(&p.sb, "scilla_version %d\n\n", m.Version)
	if m.Lib != nil {
		p.printLibrary(m.Lib)
	}
	p.printContract(&m.Contract)
	return p.sb.String()
}

func (p *Printer) nl() {
	p.sb.WriteByte('\n')
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("  ")
	}
}

func (p *Printer) printLibrary(l *Library) {
	fmt.Fprintf(&p.sb, "library %s\n", l.Name)
	for _, td := range l.Types {
		fmt.Fprintf(&p.sb, "\ntype %s =", td.Name)
		for _, c := range td.Constrs {
			p.sb.WriteString("\n| " + c.Name)
			if len(c.Args) > 0 {
				p.sb.WriteString(" of")
				for _, a := range c.Args {
					p.sb.WriteString(" " + parens(a))
				}
			}
		}
		p.sb.WriteString("\n")
	}
	for _, d := range l.Defs {
		p.sb.WriteString("\nlet " + d.Name)
		if d.Ty != nil {
			p.sb.WriteString(" : " + d.Ty.String())
		}
		p.sb.WriteString(" = ")
		p.expr(d.Expr)
		p.sb.WriteString("\n")
	}
	p.sb.WriteString("\n")
}

func (p *Printer) printContract(c *Contract) {
	fmt.Fprintf(&p.sb, "contract %s\n(", c.Name)
	for i, prm := range c.Params {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		fmt.Fprintf(&p.sb, "%s : %s", prm.Name, prm.Type.String())
	}
	p.sb.WriteString(")\n")
	for _, f := range c.Fields {
		fmt.Fprintf(&p.sb, "\nfield %s : %s = ", f.Name, f.Type.String())
		p.expr(f.Init)
		p.sb.WriteString("\n")
	}
	for i := range c.Transitions {
		t := &c.Transitions[i]
		fmt.Fprintf(&p.sb, "\ntransition %s (", t.Name)
		for j, prm := range t.Params {
			if j > 0 {
				p.sb.WriteString(", ")
			}
			fmt.Fprintf(&p.sb, "%s : %s", prm.Name, prm.Type.String())
		}
		p.sb.WriteString(")")
		p.indent++
		p.nl()
		p.stmts(t.Body)
		p.indent--
		p.nl()
		p.sb.WriteString("end\n")
	}
}

func (p *Printer) stmts(ss []Stmt) {
	for i, s := range ss {
		if i > 0 {
			p.sb.WriteString(";")
			p.nl()
		}
		p.stmt(s)
	}
}

func (p *Printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *LoadStmt:
		fmt.Fprintf(&p.sb, "%s <- %s", st.Lhs, st.Field)
	case *StoreStmt:
		fmt.Fprintf(&p.sb, "%s := %s", st.Field, st.Rhs)
	case *BindStmt:
		fmt.Fprintf(&p.sb, "%s = ", st.Lhs)
		p.expr(st.Expr)
	case *MapUpdateStmt:
		p.sb.WriteString(st.Map)
		for _, k := range st.Keys {
			fmt.Fprintf(&p.sb, "[%s]", k)
		}
		fmt.Fprintf(&p.sb, " := %s", st.Rhs)
	case *MapGetStmt:
		fmt.Fprintf(&p.sb, "%s <- ", st.Lhs)
		if st.Exists {
			p.sb.WriteString("exists ")
		}
		p.sb.WriteString(st.Map)
		for _, k := range st.Keys {
			fmt.Fprintf(&p.sb, "[%s]", k)
		}
	case *MapDeleteStmt:
		p.sb.WriteString("delete " + st.Map)
		for _, k := range st.Keys {
			fmt.Fprintf(&p.sb, "[%s]", k)
		}
	case *ReadBlockchainStmt:
		fmt.Fprintf(&p.sb, "%s <- &%s", st.Lhs, st.Name)
	case *MatchStmt:
		fmt.Fprintf(&p.sb, "match %s with", st.Scrutinee)
		for _, arm := range st.Arms {
			p.nl()
			p.sb.WriteString("| ")
			p.pattern(arm.Pat, false)
			p.sb.WriteString(" =>")
			p.indent++
			p.nl()
			p.stmts(arm.Body)
			p.indent--
		}
		p.nl()
		p.sb.WriteString("end")
	case *AcceptStmt:
		p.sb.WriteString("accept")
	case *SendStmt:
		p.sb.WriteString("send " + st.Arg)
	case *EventStmt:
		p.sb.WriteString("event " + st.Arg)
	case *ThrowStmt:
		p.sb.WriteString("throw")
		if st.Arg != "" {
			p.sb.WriteString(" " + st.Arg)
		}
	default:
		fmt.Fprintf(&p.sb, "(* unknown stmt %T *)", s)
	}
}

func (p *Printer) pattern(pat Pattern, nested bool) {
	switch pt := pat.(type) {
	case WildPat:
		p.sb.WriteString("_")
	case BindPat:
		p.sb.WriteString(pt.Name)
	case ConstrPat:
		if nested && len(pt.Sub) > 0 {
			p.sb.WriteString("(")
		}
		p.sb.WriteString(pt.Name)
		for _, sub := range pt.Sub {
			p.sb.WriteString(" ")
			p.pattern(sub, true)
		}
		if nested && len(pt.Sub) > 0 {
			p.sb.WriteString(")")
		}
	}
}

func (p *Printer) expr(e Expr) {
	switch ex := e.(type) {
	case *LitExpr:
		p.sb.WriteString(ex.Lit.String())
	case *VarExpr:
		p.sb.WriteString(ex.Name)
	case *MsgExpr:
		p.sb.WriteString("{")
		for i, en := range ex.Entries {
			if i > 0 {
				p.sb.WriteString("; ")
			}
			p.sb.WriteString(en.Key + " : ")
			if en.IsLit {
				p.sb.WriteString(en.Lit.String())
			} else {
				p.sb.WriteString(en.Var)
			}
		}
		p.sb.WriteString("}")
	case *ConstrExpr:
		p.sb.WriteString(ex.Name)
		if ex.Name == "Emp" {
			// Emp takes bare juxtaposed type arguments.
			for _, t := range ex.TypeArgs {
				p.sb.WriteString(" " + parens(t))
			}
			return
		}
		if len(ex.TypeArgs) > 0 {
			p.sb.WriteString(" {")
			for i, t := range ex.TypeArgs {
				if i > 0 {
					p.sb.WriteString(" ")
				}
				p.sb.WriteString(parens(t))
			}
			p.sb.WriteString("}")
		}
		for _, a := range ex.Args {
			p.sb.WriteString(" " + a)
		}
	case *BuiltinExpr:
		p.sb.WriteString("builtin " + ex.Name)
		for _, a := range ex.Args {
			p.sb.WriteString(" " + a)
		}
	case *LetExpr:
		p.sb.WriteString("let " + ex.Name)
		if ex.Ty != nil {
			p.sb.WriteString(" : " + ex.Ty.String())
		}
		p.sb.WriteString(" = ")
		p.expr(ex.Bound)
		p.sb.WriteString(" in")
		p.nl()
		p.expr(ex.Body)
	case *FunExpr:
		fmt.Fprintf(&p.sb, "fun (%s : %s) =>", ex.Param, ex.ParamType.String())
		p.indent++
		p.nl()
		p.expr(ex.Body)
		p.indent--
	case *AppExpr:
		p.sb.WriteString(ex.Func)
		for _, a := range ex.Args {
			p.sb.WriteString(" " + a)
		}
	case *MatchExpr:
		fmt.Fprintf(&p.sb, "match %s with", ex.Scrutinee)
		for _, arm := range ex.Arms {
			p.nl()
			p.sb.WriteString("| ")
			p.pattern(arm.Pat, false)
			p.sb.WriteString(" => ")
			p.expr(arm.Body)
		}
		p.nl()
		p.sb.WriteString("end")
	case *TFunExpr:
		p.sb.WriteString("tfun " + ex.TVar + " =>")
		p.indent++
		p.nl()
		p.expr(ex.Body)
		p.indent--
	case *TAppExpr:
		p.sb.WriteString("@" + ex.Name)
		for _, t := range ex.TypeArgs {
			p.sb.WriteString(" " + parens(t))
		}
	default:
		fmt.Fprintf(&p.sb, "(* unknown expr %T *)", e)
	}
}
