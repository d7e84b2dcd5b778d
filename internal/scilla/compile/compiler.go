package compile

import (
	"fmt"

	"cosplit/internal/scilla/ast"
	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/stdlib"
	"cosplit/internal/scilla/value"
)

// Slots 0..2 hold the implicit transition parameters.
const (
	slotSender = iota
	slotOrigin
	slotAmount
	firstFreeSlot
)

// Shared boxed constants: results the interpreter re-allocates per
// evaluation but that are immutable, so compiled code returns one
// shared box.
var (
	boxedTrue  value.Value = value.True()
	boxedFalse value.Value = value.False()
)

func boxedBool(b bool) value.Value {
	if b {
		return boxedTrue
	}
	return boxedFalse
}

// binding is the compile-time record of a name in scope.
type binding struct {
	slot int
	// fused marks a map-read Option binding kept unwrapped: the slot
	// holds the raw map value and ffound[slot] the presence flag.
	fused bool
	valT  ast.Type // map value type, for materialising fused bindings
}

type compiler struct {
	in     *eval.Interpreter
	frames []map[string]binding
	nslots int
	// hasLambda and sawRebind together force a fallback: the
	// interpreter's closures capture their environment by reference,
	// so a same-frame rebind after closure creation is observable;
	// compiled closures snapshot their captures instead.
	hasLambda bool
	sawRebind bool
	fastPath  bool
}

func compileTransition(in *eval.Interpreter, tr *ast.Transition) (pr *proc, nslots int, err error) {
	c := &compiler{in: in, nslots: firstFreeSlot}
	c.push()
	root := c.frames[0]
	root[ast.SenderParam] = binding{slot: slotSender}
	root[ast.OriginParam] = binding{slot: slotOrigin}
	root[ast.AmountParam] = binding{slot: slotAmount}
	params := make([]paramSpec, len(tr.Params))
	for i, p := range tr.Params {
		s := c.bind(p.Name)
		params[i] = paramSpec{name: p.Name, ty: p.Type, slot: s}
	}
	code, err := c.block(tr.Body)
	if err != nil {
		return nil, 0, err
	}
	if c.hasLambda && c.sawRebind {
		return nil, 0, fmt.Errorf("transition %s: closure capture with same-frame rebind", tr.Name)
	}
	return &proc{name: tr.Name, params: params, code: code, fastPath: c.fastPath}, c.nslots, nil
}

// --- scopes ---

func (c *compiler) push() { c.frames = append(c.frames, map[string]binding{}) }
func (c *compiler) pop()  { c.frames = c.frames[:len(c.frames)-1] }

func (c *compiler) bind(name string) int {
	f := c.frames[len(c.frames)-1]
	if _, exists := f[name]; exists {
		c.sawRebind = true
	}
	s := c.nslots
	c.nslots++
	f[name] = binding{slot: s}
	return s
}

func (c *compiler) bindFused(name string, valT ast.Type) int {
	f := c.frames[len(c.frames)-1]
	if _, exists := f[name]; exists {
		c.sawRebind = true
	}
	s := c.nslots
	c.nslots++
	f[name] = binding{slot: s, fused: true, valT: valT}
	return s
}

// bindAlias binds name to an existing slot (a fused Some-arm binder
// aliases the raw fused slot; no copy is needed).
func (c *compiler) bindAlias(name string, slot int) {
	f := c.frames[len(c.frames)-1]
	if _, exists := f[name]; exists {
		c.sawRebind = true
	}
	f[name] = binding{slot: slot}
}

func (c *compiler) resolve(name string) (binding, bool) {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if b, ok := c.frames[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// getter resolves a name to a value reader: a slot read, a
// materialising read of a fused Option binding, or a library constant.
// Unresolvable names abort compilation (the interpreter fallback then
// reproduces the runtime unbound-identifier behaviour exactly).
func (c *compiler) getter(name string) (getter, error) {
	if b, ok := c.resolve(name); ok {
		slot := b.slot
		if b.fused {
			return materialiser(slot, b.valT), nil
		}
		return func(m *mach) value.Value { return m.slots[slot] }, nil
	}
	if v, ok := c.in.LibValue(name); ok {
		return func(m *mach) value.Value { return v }, nil
	}
	return nil, fmt.Errorf("unresolved identifier %s", name)
}

// materialiser rebuilds the Option wrapper of a fused binding for the
// rare uses that need the wrapped value.
func materialiser(slot int, valT ast.Type) getter {
	targs := []ast.Type{valT}
	noneC := value.Value(value.None(valT))
	return func(m *mach) value.Value {
		if m.ffound[slot] {
			return value.ADT{TypeName: "Option", Constr: "Some", TypeArgs: targs, Args: []value.Value{m.slots[slot]}}
		}
		return noneC
	}
}

func (c *compiler) getters(names []string) ([]getter, error) {
	out := make([]getter, len(names))
	for i, n := range names {
		g, err := c.getter(n)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// fieldValueTypeAt mirrors the interpreter's resolution of the value
// type at a map field's nesting depth; failures abort compilation so
// the interpreter surfaces the identical runtime error.
func (c *compiler) fieldValueTypeAt(field string, depth int) (ast.Type, error) {
	t, ok := c.in.Checked().FieldTypes[field]
	if !ok {
		return nil, fmt.Errorf("unknown field %s", field)
	}
	for i := 0; i < depth; i++ {
		mt, ok := t.(ast.MapType)
		if !ok {
			return nil, fmt.Errorf("field %s is not a map at depth %d", field, i)
		}
		t = mt.Val
	}
	return t, nil
}

// keyOps compiles a map statement's key vector: per-key getters whose
// values are appended to the machine's reusable key buffer alongside
// their interned canonical keys.
func (c *compiler) keyOps(names []string) (func(m *mach) ([]string, []value.Value), error) {
	gets, err := c.getters(names)
	if err != nil {
		return nil, err
	}
	return func(m *mach) ([]string, []value.Value) {
		kb := m.keyBuf[:0]
		cb := m.cks[:0]
		for _, g := range gets {
			v := g(m)
			kb = append(kb, v)
			cb = append(cb, m.canonKey(v))
		}
		m.keyBuf, m.cks = kb, cb
		return cb, kb
	}, nil
}

// --- statements ---

// block compiles a statement sequence. Fusion decisions for map reads
// look ahead into the remainder of the same block.
func (c *compiler) block(stmts []ast.Stmt) ([]stmtOp, error) {
	out := make([]stmtOp, 0, len(stmts))
	for i, s := range stmts {
		op, err := c.stmt(s, stmts[i+1:])
		if err != nil {
			return nil, err
		}
		out = append(out, op)
	}
	return out, nil
}

func (c *compiler) stmt(s ast.Stmt, rest []ast.Stmt) (stmtOp, error) {
	switch st := s.(type) {
	case *ast.LoadStmt:
		slot := c.bind(st.Lhs)
		if st.Field == "_balance" {
			return opLoadBalance(slot), nil
		}
		field := st.Field
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasLoad); err != nil {
				return err
			}
			v, err := m.ctx.State.LoadField(field)
			if err != nil {
				return err
			}
			m.slots[slot] = v
			return nil
		}, nil

	case *ast.StoreStmt:
		get, err := c.getter(st.Rhs)
		if err != nil {
			return nil, err
		}
		field := st.Field
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasStore); err != nil {
				return err
			}
			return m.ctx.State.StoreField(field, get(m))
		}, nil

	case *ast.BindStmt:
		eop, err := c.expr(st.Expr)
		if err != nil {
			return nil, err
		}
		slot := c.bind(st.Lhs)
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			v, err := eop(m)
			if err != nil {
				return err
			}
			m.slots[slot] = v
			return nil
		}, nil

	case *ast.MapUpdateStmt:
		keys, err := c.keyOps(st.Keys)
		if err != nil {
			return nil, err
		}
		get, err := c.getter(st.Rhs)
		if err != nil {
			return nil, err
		}
		field := st.Map
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasMapOp); err != nil {
				return err
			}
			cks, kv := keys(m)
			return m.ctx.State.MapSet(field, cks, kv, get(m))
		}, nil

	case *ast.MapGetStmt:
		return c.mapGetStmt(st, rest)

	case *ast.MapDeleteStmt:
		keys, err := c.keyOps(st.Keys)
		if err != nil {
			return nil, err
		}
		field := st.Map
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasMapOp); err != nil {
				return err
			}
			cks, kv := keys(m)
			return m.ctx.State.MapDelete(field, cks, kv)
		}, nil

	case *ast.ReadBlockchainStmt:
		slot := c.bind(st.Lhs)
		switch st.Name {
		case "BLOCKNUMBER":
			return opReadBlockNumber(slot), nil
		case "TIMESTAMP":
			return opReadTimestamp(slot), nil
		default:
			return nil, fmt.Errorf("unknown blockchain component %s", st.Name)
		}

	case *ast.MatchStmt:
		return c.matchStmt(st)

	case *ast.AcceptStmt:
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			m.res.Accepted = true
			return nil
		}, nil

	case *ast.SendStmt:
		get, err := c.getter(st.Arg)
		if err != nil {
			return nil, err
		}
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasSend); err != nil {
				return err
			}
			msgs, ok := value.ListValues(get(m))
			if !ok {
				return fmt.Errorf("send expects a list of messages")
			}
			for _, mv := range msgs {
				msg, ok := mv.(value.Msg)
				if !ok {
					return fmt.Errorf("send expects messages, got %s", mv.String())
				}
				m.res.Messages = append(m.res.Messages, msg)
			}
			return nil
		}, nil

	case *ast.EventStmt:
		get, err := c.getter(st.Arg)
		if err != nil {
			return nil, err
		}
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasEvent); err != nil {
				return err
			}
			msg, ok := get(m).(value.Msg)
			if !ok {
				return fmt.Errorf("event expects a message payload")
			}
			m.res.Events = append(m.res.Events, msg)
			return nil
		}, nil

	case *ast.ThrowStmt:
		// The interpreter keeps the default "throw" message when the
		// argument is unbound, so an unresolvable argument compiles to
		// the constant form rather than failing.
		if st.Arg == "" {
			return opThrowConst, nil
		}
		get, err := c.getter(st.Arg)
		if err != nil {
			return opThrowConst, nil
		}
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			return &eval.ThrowError{Msg: get(m).String()}
		}, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

func opThrowConst(m *mach) error {
	if err := m.burn(eval.GasStmt); err != nil {
		return err
	}
	return &eval.ThrowError{Msg: "throw"}
}

// mapGetStmt compiles `x <- m[ks]` / `x <- exists m[ks]`. A plain get
// whose every later use is an Option match is fused: the raw value and
// presence flag are stored unwrapped, and the matches branch on the
// flag, eliding both the Some allocation and the pattern dispatch.
func (c *compiler) mapGetStmt(st *ast.MapGetStmt, rest []ast.Stmt) (stmtOp, error) {
	keys, err := c.keyOps(st.Keys)
	if err != nil {
		return nil, err
	}
	field := st.Map
	if st.Exists {
		slot := c.bind(st.Lhs)
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasMapOp); err != nil {
				return err
			}
			cks, kv := keys(m)
			_, found, err := m.ctx.State.MapGet(field, cks, kv)
			if err != nil {
				return err
			}
			m.slots[slot] = boxedBool(found)
			return nil
		}, nil
	}
	valT, err := c.fieldValueTypeAt(st.Map, len(st.Keys))
	if err != nil {
		return nil, err
	}
	if fuseScan(rest, st.Lhs) {
		c.fastPath = true
		slot := c.bindFused(st.Lhs, valT)
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if err := m.burn(eval.GasMapOp); err != nil {
				return err
			}
			cks, kv := keys(m)
			v, found, err := m.ctx.State.MapGet(field, cks, kv)
			if err != nil {
				return err
			}
			m.slots[slot] = v
			m.ffound[slot] = found
			return nil
		}, nil
	}
	slot := c.bind(st.Lhs)
	targs := []ast.Type{valT}
	noneC := value.Value(value.None(valT))
	return func(m *mach) error {
		if err := m.burn(eval.GasStmt); err != nil {
			return err
		}
		if err := m.burn(eval.GasMapOp); err != nil {
			return err
		}
		cks, kv := keys(m)
		v, found, err := m.ctx.State.MapGet(field, cks, kv)
		if err != nil {
			return err
		}
		if found {
			m.slots[slot] = value.ADT{TypeName: "Option", Constr: "Some", TypeArgs: targs, Args: []value.Value{v}}
		} else {
			m.slots[slot] = noneC
		}
		return nil
	}, nil
}

// matchStmt compiles a statement match: fused Option scrutinees branch
// directly on the presence flag; everything else runs compiled
// pattern matchers in arm order.
func (c *compiler) matchStmt(st *ast.MatchStmt) (stmtOp, error) {
	if b, ok := c.resolve(st.Scrutinee); ok && b.fused {
		someBody, noneBody, err := c.fusedArms(st.Arms, b,
			func(body []ast.Stmt) (any, error) { ops, err := c.block(body); return ops, err })
		if err != nil {
			return nil, err
		}
		fslot, valT := b.slot, b.valT
		noneStr := value.None(valT).String()
		return func(m *mach) error {
			if err := m.burn(eval.GasStmt); err != nil {
				return err
			}
			if m.ffound[fslot] {
				if someBody == nil {
					return &eval.ThrowError{Msg: "no pattern matched value " + value.Some(valT, m.slots[fslot]).String()}
				}
				return runOps(m, someBody.([]stmtOp))
			}
			if noneBody == nil {
				return &eval.ThrowError{Msg: "no pattern matched value " + noneStr}
			}
			return runOps(m, noneBody.([]stmtOp))
		}, nil
	}
	get, err := c.getter(st.Scrutinee)
	if err != nil {
		return nil, err
	}
	type armC struct {
		match matcher
		body  []stmtOp
	}
	arms := make([]armC, len(st.Arms))
	for i := range st.Arms {
		c.push()
		match, err := c.pattern(st.Arms[i].Pat)
		if err != nil {
			c.pop()
			return nil, err
		}
		body, err := c.block(st.Arms[i].Body)
		c.pop()
		if err != nil {
			return nil, err
		}
		arms[i] = armC{match: match, body: body}
	}
	return func(m *mach) error {
		if err := m.burn(eval.GasStmt); err != nil {
			return err
		}
		scrut := get(m)
		for i := range arms {
			if arms[i].match(m, scrut) {
				return runOps(m, arms[i].body)
			}
		}
		return &eval.ThrowError{Msg: fmt.Sprintf("no pattern matched value %s", scrut.String())}
	}, nil
}

// fusedArms selects the Some-taken and None-taken arm of a match over
// a fused Option binding, compiling each selected body with compileBody
// (returns []stmtOp or exprOp depending on the caller). A Some arm's
// binder aliases the fused slot directly.
func (c *compiler) fusedArms(arms []ast.StmtMatchArm, b binding,
	compileBody func([]ast.Stmt) (any, error)) (someBody, noneBody any, err error) {
	someIdx, noneIdx := -1, -1
	var someBinder string
	someBinds := false
	for i := range arms {
		switch pat := arms[i].Pat.(type) {
		case ast.WildPat:
			if someIdx < 0 {
				someIdx = i
			}
			if noneIdx < 0 {
				noneIdx = i
			}
		case ast.ConstrPat:
			switch {
			case pat.Name == "Some" && len(pat.Sub) == 1 && someIdx < 0:
				someIdx = i
				if bp, ok := pat.Sub[0].(ast.BindPat); ok {
					someBinder, someBinds = bp.Name, true
				}
			case pat.Name == "None" && len(pat.Sub) == 0 && noneIdx < 0:
				noneIdx = i
			}
		default:
			// fuseScan only admits Wild/Some/None arms; anything else
			// means the scan and this selector disagree.
			return nil, nil, fmt.Errorf("unexpected fused match arm %T", arms[i].Pat)
		}
	}
	if someIdx >= 0 {
		c.push()
		if someBinds {
			c.bindAlias(someBinder, b.slot)
		}
		someBody, err = compileBody(arms[someIdx].Body)
		c.pop()
		if err != nil {
			return nil, nil, err
		}
	}
	if noneIdx >= 0 {
		c.push()
		noneBody, err = compileBody(arms[noneIdx].Body)
		c.pop()
		if err != nil {
			return nil, nil, err
		}
	}
	return someBody, noneBody, nil
}

func (c *compiler) pattern(p ast.Pattern) (matcher, error) {
	switch pt := p.(type) {
	case ast.WildPat:
		return func(m *mach, v value.Value) bool { return true }, nil
	case ast.BindPat:
		slot := c.bind(pt.Name)
		return func(m *mach, v value.Value) bool {
			m.slots[slot] = v
			return true
		}, nil
	case ast.ConstrPat:
		subs := make([]matcher, len(pt.Sub))
		for i, sp := range pt.Sub {
			sm, err := c.pattern(sp)
			if err != nil {
				return nil, err
			}
			subs[i] = sm
		}
		name := pt.Name
		n := len(pt.Sub)
		return func(m *mach, v value.Value) bool {
			adt, ok := v.(value.ADT)
			if !ok || adt.Constr != name || len(adt.Args) != n {
				return false
			}
			for i, sm := range subs {
				if !sm(m, adt.Args[i]) {
					return false
				}
			}
			return true
		}, nil
	}
	return nil, fmt.Errorf("unknown pattern %T", p)
}

// --- expressions ---

func (c *compiler) expr(e ast.Expr) (exprOp, error) {
	switch ex := e.(type) {
	case *ast.LitExpr:
		// Literal values are immutable; one shared instance replaces
		// the interpreter's per-evaluation FromLiteral allocation.
		cv := value.FromLiteral(ex.Lit)
		return opConst(cv), nil

	case *ast.VarExpr:
		get, err := c.getter(ex.Name)
		if err != nil {
			return nil, err
		}
		return func(m *mach) (value.Value, error) {
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			return get(m), nil
		}, nil

	case *ast.MsgExpr:
		type entryC struct {
			key    string
			isC    bool
			constV value.Value
			get    getter
		}
		entries := make([]entryC, len(ex.Entries))
		for i, en := range ex.Entries {
			if en.IsLit {
				entries[i] = entryC{key: en.Key, isC: true, constV: value.FromLiteral(en.Lit)}
				continue
			}
			g, err := c.getter(en.Var)
			if err != nil {
				return nil, err
			}
			entries[i] = entryC{key: en.Key, get: g}
		}
		n := len(entries)
		return func(m *mach) (value.Value, error) {
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			out := make(map[string]value.Value, n)
			for i := range entries {
				if entries[i].isC {
					out[entries[i].key] = entries[i].constV
				} else {
					out[entries[i].key] = entries[i].get(m)
				}
			}
			return value.Msg{Entries: out}, nil
		}, nil

	case *ast.ConstrExpr:
		return c.constrExpr(ex)

	case *ast.BuiltinExpr:
		return c.builtinExpr(ex)

	case *ast.LetExpr:
		bound, err := c.expr(ex.Bound)
		if err != nil {
			return nil, err
		}
		c.push()
		slot := c.bind(ex.Name)
		body, err := c.expr(ex.Body)
		c.pop()
		if err != nil {
			return nil, err
		}
		return func(m *mach) (value.Value, error) {
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			bv, err := bound(m)
			if err != nil {
				return nil, err
			}
			m.slots[slot] = bv
			return body(m)
		}, nil

	case *ast.FunExpr:
		return c.funExpr(ex)

	case *ast.AppExpr:
		return c.appExpr(ex)

	case *ast.MatchExpr:
		return c.matchExpr(ex)

	case *ast.TFunExpr:
		return c.tfunExpr(ex)

	case *ast.TAppExpr:
		return c.tappExpr(ex)
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func opConst(v value.Value) exprOp {
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		return v, nil
	}
}

func (c *compiler) constrExpr(ex *ast.ConstrExpr) (exprOp, error) {
	if ex.Name == "Emp" {
		kt, vt := ex.TypeArgs[0], ex.TypeArgs[1]
		return func(m *mach) (value.Value, error) {
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			return value.NewMap(kt, vt), nil
		}, nil
	}
	adt := c.in.Checked().Registry.OwnerOfConstr(ex.Name)
	if adt == nil {
		return nil, fmt.Errorf("unknown constructor %s", ex.Name)
	}
	if len(ex.Args) == 0 {
		// Zero-argument constructors are immutable; share one box.
		cv := value.Value(value.ADT{TypeName: adt.Name, Constr: ex.Name, TypeArgs: ex.TypeArgs})
		return opConst(cv), nil
	}
	gets, err := c.getters(ex.Args)
	if err != nil {
		return nil, err
	}
	typeName, constr, targs := adt.Name, ex.Name, ex.TypeArgs
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		args := make([]value.Value, len(gets))
		for i, g := range gets {
			args[i] = g(m)
		}
		return value.ADT{TypeName: typeName, Constr: constr, TypeArgs: targs, Args: args}, nil
	}, nil
}

// matchExpr compiles an expression match, with the same fused-Option
// specialisation as matchStmt.
func (c *compiler) matchExpr(ex *ast.MatchExpr) (exprOp, error) {
	if b, ok := c.resolve(ex.Scrutinee); ok && b.fused {
		stmtArms := make([]ast.StmtMatchArm, len(ex.Arms))
		for i := range ex.Arms {
			stmtArms[i] = ast.StmtMatchArm{Pat: ex.Arms[i].Pat}
		}
		// Reuse fusedArms for arm selection; bodies are compiled as
		// expressions via the index captured per call.
		someIdx, noneIdx := -1, -1
		var someBinder string
		someBinds := false
		for i := range ex.Arms {
			switch pat := ex.Arms[i].Pat.(type) {
			case ast.WildPat:
				if someIdx < 0 {
					someIdx = i
				}
				if noneIdx < 0 {
					noneIdx = i
				}
			case ast.ConstrPat:
				switch {
				case pat.Name == "Some" && len(pat.Sub) == 1 && someIdx < 0:
					someIdx = i
					if bp, ok := pat.Sub[0].(ast.BindPat); ok {
						someBinder, someBinds = bp.Name, true
					}
				case pat.Name == "None" && len(pat.Sub) == 0 && noneIdx < 0:
					noneIdx = i
				}
			default:
				return nil, fmt.Errorf("unexpected fused match arm %T", ex.Arms[i].Pat)
			}
		}
		var someBody, noneBody exprOp
		var err error
		if someIdx >= 0 {
			c.push()
			if someBinds {
				c.bindAlias(someBinder, b.slot)
			}
			someBody, err = c.expr(ex.Arms[someIdx].Body)
			c.pop()
			if err != nil {
				return nil, err
			}
		}
		if noneIdx >= 0 {
			c.push()
			noneBody, err = c.expr(ex.Arms[noneIdx].Body)
			c.pop()
			if err != nil {
				return nil, err
			}
		}
		fslot, valT := b.slot, b.valT
		noneStr := value.None(valT).String()
		return func(m *mach) (value.Value, error) {
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			if m.ffound[fslot] {
				if someBody == nil {
					return nil, &eval.ThrowError{Msg: "no pattern matched value " + value.Some(valT, m.slots[fslot]).String()}
				}
				return someBody(m)
			}
			if noneBody == nil {
				return nil, &eval.ThrowError{Msg: "no pattern matched value " + noneStr}
			}
			return noneBody(m)
		}, nil
	}
	get, err := c.getter(ex.Scrutinee)
	if err != nil {
		return nil, err
	}
	type armC struct {
		match matcher
		body  exprOp
	}
	arms := make([]armC, len(ex.Arms))
	for i := range ex.Arms {
		c.push()
		match, err := c.pattern(ex.Arms[i].Pat)
		if err != nil {
			c.pop()
			return nil, err
		}
		body, err := c.expr(ex.Arms[i].Body)
		c.pop()
		if err != nil {
			return nil, err
		}
		arms[i] = armC{match: match, body: body}
	}
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		scrut := get(m)
		for i := range arms {
			if arms[i].match(m, scrut) {
				return arms[i].body(m)
			}
		}
		return nil, &eval.ThrowError{Msg: fmt.Sprintf("no pattern matched value %s", scrut.String())}
	}, nil
}

// funExpr materialises a closure with a snapshot of the current scope
// (the interpreter captures its environment chain by reference; the
// sawRebind guard forces a fallback whenever that difference could be
// observed).
func (c *compiler) funExpr(ex *ast.FunExpr) (exprOp, error) {
	c.hasLambda = true
	caps, err := c.captures()
	if err != nil {
		return nil, err
	}
	libEnv := c.in.LibEnv()
	param, paramT, body := ex.Param, ex.ParamType, ex.Body
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		env := value.NewEnv(libEnv)
		for i := range caps {
			env.Bind(caps[i].name, caps[i].get(m))
		}
		return &value.Closure{Param: param, ParamType: paramT, Body: body, Env: env}, nil
	}, nil
}

func (c *compiler) tfunExpr(ex *ast.TFunExpr) (exprOp, error) {
	c.hasLambda = true
	caps, err := c.captures()
	if err != nil {
		return nil, err
	}
	libEnv := c.in.LibEnv()
	tvar, body := ex.TVar, ex.Body
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		env := value.NewEnv(libEnv)
		for i := range caps {
			env.Bind(caps[i].name, caps[i].get(m))
		}
		return &value.TClosure{TVar: tvar, Body: body, Env: env}, nil
	}, nil
}

type capture struct {
	name string
	get  getter
}

// captures snapshots every binding in scope, outermost frame first so
// inner shadowing wins when bound into the flat environment frame.
func (c *compiler) captures() ([]capture, error) {
	var out []capture
	for _, f := range c.frames {
		for name, b := range f {
			slot := b.slot
			if b.fused {
				out = append(out, capture{name: name, get: materialiser(slot, b.valT)})
				continue
			}
			out = append(out, capture{name: name, get: func(m *mach) value.Value { return m.slots[slot] }})
		}
	}
	return out, nil
}

func (c *compiler) appExpr(ex *ast.AppExpr) (exprOp, error) {
	if op, ok, err := c.inlineApp(ex); err != nil {
		return nil, err
	} else if ok {
		return op, nil
	}
	fnGet, err := c.getter(ex.Func)
	if err != nil {
		return nil, err
	}
	argGets, err := c.getters(ex.Args)
	if err != nil {
		return nil, err
	}
	in := c.in
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		cur := fnGet(m)
		for _, g := range argGets {
			var err error
			cur, err = in.Apply(m.ctx, cur, g(m))
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	}, nil
}

// inlineApp compiles a saturated application of a statically-known
// library closure by inlining the closure bodies. Gas is charged at
// the interpreter's exact sequence points: one unit at the App node,
// one per application, and one per intermediate lambda node evaluated
// while peeling.
func (c *compiler) inlineApp(ex *ast.AppExpr) (exprOp, bool, error) {
	if _, shadowed := c.resolve(ex.Func); shadowed {
		return nil, false, nil
	}
	fv, ok := c.in.LibValue(ex.Func)
	if !ok {
		return nil, false, nil
	}
	cl, ok := fv.(*value.Closure)
	if !ok || cl.Env != c.in.LibEnv() {
		return nil, false, nil
	}
	// Collect the lambda chain: params[i] receives args[i]; bodies in
	// between must be lambda nodes (each costs one gas when evaluated).
	params := []string{cl.Param}
	body := cl.Body
	for i := 1; i < len(ex.Args); i++ {
		fe, ok := body.(*ast.FunExpr)
		if !ok {
			return nil, false, nil
		}
		params = append(params, fe.Param)
		body = fe.Body
	}
	argGets, err := c.getters(ex.Args)
	if err != nil {
		return nil, false, err
	}
	// The inlined body sees only its own parameters and the library
	// environment — never the caller's locals.
	saved := c.frames
	c.frames = nil
	c.push()
	argSlots := make([]int, len(params))
	for i, pn := range params {
		argSlots[i] = c.bind(pn)
	}
	bodyOp, err := c.expr(body)
	c.frames = saved
	if err != nil {
		// The body may contain constructs the compiler does not
		// support; fall back to the generic application loop.
		return nil, false, nil
	}
	n := len(ex.Args)
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			// One application step per argument...
			if err := m.burn(eval.GasExpr); err != nil {
				return nil, err
			}
			m.slots[argSlots[i]] = argGets[i](m)
			if i < n-1 {
				// ...and one lambda-node evaluation between steps.
				if err := m.burn(eval.GasExpr); err != nil {
					return nil, err
				}
			}
		}
		return bodyOp(m)
	}, true, nil
}

func (c *compiler) tappExpr(ex *ast.TAppExpr) (exprOp, error) {
	if _, local := c.resolve(ex.Name); !local {
		if fv, ok := c.in.LibValue(ex.Name); ok {
			if nv, isNative := fv.(*value.Native); isNative {
				// Native type application is pure and gas-free beyond
				// the node itself; precompute the instantiation.
				cur := value.Value(nv)
				for _, ta := range ex.TypeArgs {
					cur = cur.(*value.Native).WithTypeArgs([]ast.Type{ta})
				}
				return opConst(cur), nil
			}
		}
	}
	get, err := c.getter(ex.Name)
	if err != nil {
		return nil, err
	}
	in := c.in
	name, targs := ex.Name, ex.TypeArgs
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		return in.TApply(m.ctx, name, get(m), targs)
	}, nil
}

// builtinExpr compiles a builtin application. Integer arithmetic and
// comparisons — the entire hot path of transfer-shaped transitions —
// get allocation-free specialisations; everything else (and every
// non-happy case) delegates to the stdlib for exact error behaviour.
func (c *compiler) builtinExpr(ex *ast.BuiltinExpr) (exprOp, error) {
	gets, err := c.getters(ex.Args)
	if err != nil {
		return nil, err
	}
	if len(ex.Args) == 2 {
		g0, g1 := gets[0], gets[1]
		switch ex.Name {
		case "add":
			return opArith(g0, g1, "add", true), nil
		case "sub":
			return opArith(g0, g1, "sub", false), nil
		case "lt", "le", "gt", "ge":
			return opCmp(g0, g1, ex.Name), nil
		case "eq":
			return func(m *mach) (value.Value, error) {
				if err := m.burn(eval.GasExpr); err != nil {
					return nil, err
				}
				if err := m.burn(eval.GasBuiltin); err != nil {
					return nil, err
				}
				return boxedBool(value.Equal(g0(m), g1(m))), nil
			}, nil
		}
	}
	if len(gets) > len((*mach)(nil).argBuf) {
		return nil, fmt.Errorf("builtin %s arity %d exceeds machine arg buffer", ex.Name, len(gets))
	}
	name := ex.Name
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		if err := m.burn(eval.GasBuiltin); err != nil {
			return nil, err
		}
		args := m.argBuf[:len(gets)]
		for i, g := range gets {
			args[i] = g(m)
		}
		return evalBuiltin(name, args)
	}, nil
}

// evalBuiltin delegates to the stdlib and applies the interpreter's
// RuntimeError-to-ThrowError wrapping.
func evalBuiltin(name string, args []value.Value) (value.Value, error) {
	v, err := stdlib.Eval(name, args)
	if err != nil {
		if rt, ok := err.(*stdlib.RuntimeError); ok {
			return nil, &eval.ThrowError{Msg: rt.Msg}
		}
		return nil, err
	}
	return v, nil
}

// opArith is the fused add/sub fast path: same-kind integer operands
// compute into a slab cell, so the only allocation is the result box.
func opArith(g0, g1 getter, name string, isAdd bool) exprOp {
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		if err := m.burn(eval.GasBuiltin); err != nil {
			return nil, err
		}
		a := g0(m)
		b := g1(m)
		ai, ok1 := a.(value.Int)
		bi, ok2 := b.(value.Int)
		if !ok1 || !ok2 || ai.Ty.Kind != bi.Ty.Kind {
			m.argBuf[0], m.argBuf[1] = a, b
			return evalBuiltin(name, m.argBuf[:2])
		}
		bx := m.nextBox()
		bx.bi.SetBits(bx.w[:0])
		if isAdd {
			bx.bi.Add(ai.V, bi.V)
		} else {
			bx.bi.Sub(ai.V, bi.V)
		}
		if !ast.InRange(ai.Ty, &bx.bi) {
			return nil, &eval.ThrowError{Msg: fmt.Sprintf("integer overflow in %s on %s", name, ai.Ty)}
		}
		return value.Int{Ty: ai.Ty, V: &bx.bi}, nil
	}
}

// opCmp is the fused comparison fast path, returning shared Bool boxes.
func opCmp(g0, g1 getter, name string) exprOp {
	return func(m *mach) (value.Value, error) {
		if err := m.burn(eval.GasExpr); err != nil {
			return nil, err
		}
		if err := m.burn(eval.GasBuiltin); err != nil {
			return nil, err
		}
		a := g0(m)
		b := g1(m)
		ai, ok1 := a.(value.Int)
		bi, ok2 := b.(value.Int)
		if !ok1 || !ok2 {
			m.argBuf[0], m.argBuf[1] = a, b
			return evalBuiltin(name, m.argBuf[:2])
		}
		cmp := ai.V.Cmp(bi.V)
		switch name {
		case "lt":
			return boxedBool(cmp < 0), nil
		case "le":
			return boxedBool(cmp <= 0), nil
		case "gt":
			return boxedBool(cmp > 0), nil
		default:
			return boxedBool(cmp >= 0), nil
		}
	}
}
