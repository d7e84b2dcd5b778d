package compile

import (
	"bytes"
	"math/big"

	"cosplit/internal/scilla/eval"
	"cosplit/internal/scilla/value"
)

// intBox is one slab cell for a boxed arithmetic result. The embedded
// word array gives the big.Int a preallocated backing for values up to
// 128 bits, which covers every Uint128 balance; wider results simply
// let big.Int grow its own backing.
type intBox struct {
	bi big.Int
	w  [2]big.Word
}

const slabSize = 32

// ikeysResetThreshold bounds the per-machine canonical-key intern
// table; past it the table is dropped and rebuilt, so a workload
// touching unbounded key sets cannot grow a machine without limit.
const ikeysResetThreshold = 1 << 16

// mach is the pooled per-execution machine state. A mach is checked
// out of its Program's pool for the duration of one Run and returned
// cleared, so no transaction can observe another's values. Slots are
// the compiled replacement for the interpreter's environment chain:
// every binding site is resolved to a fixed slot index at compile
// time.
type mach struct {
	ctx   *eval.Context
	slots []value.Value
	// ffound holds the found-flag for fused Option bindings (map reads
	// whose Some/None wrapper is elided); indexed by slot.
	ffound []bool
	res    eval.Result

	// scratch buffers for canonical key construction and map-op key
	// vectors; capacity is retained across runs.
	scratch []byte
	cks     []string
	keyBuf  []value.Value
	argBuf  [3]value.Value
	// ikeys interns canonical keys so repeated map accesses to the same
	// key do not re-allocate the key string.
	ikeys map[string]string

	// slab is the arena for boxed arithmetic results. It advances
	// monotonically and cells are never reused: a result big.Int may
	// escape into contract state, so reuse would corrupt it. A fresh
	// slab replaces an exhausted one, amortising the per-result
	// allocation to 1/slabSize.
	slab  []intBox
	slabN int

	// Boxed-interface caches for the implicit transition parameters.
	// Re-boxing an interface costs an allocation, so the previous box
	// is reused when the incoming value is unchanged.
	senderRaw value.ByStr
	senderBox value.Value
	originRaw value.ByStr
	originBox value.Value
	amountRaw value.Int
	amountBox value.Value
}

func (m *mach) burn(g uint64) error {
	c := m.ctx
	c.GasUsed += g
	if c.GasLimit > 0 && c.GasUsed > c.GasLimit {
		return &eval.OutOfGasError{Limit: c.GasLimit}
	}
	return nil
}

// nextBox returns a never-before-used slab cell.
func (m *mach) nextBox() *intBox {
	if m.slabN == len(m.slab) {
		m.slab = make([]intBox, slabSize)
		m.slabN = 0
	}
	b := &m.slab[m.slabN]
	m.slabN++
	return b
}

func boxByStr(raw *value.ByStr, box *value.Value, b value.ByStr) value.Value {
	if *box != nil && raw.Ty == b.Ty && bytes.Equal(raw.B, b.B) {
		return *box
	}
	*raw = b
	*box = b
	return *box
}

// boxAmount boxes the call's _amount, reusing the previous box while
// the amount is equal. The box holds the machine's own copy of the
// amount, so a pooled machine keeps no pointer into a transaction it
// has run.
func (m *mach) boxAmount(a value.Int) value.Value {
	if m.amountBox != nil && m.amountRaw.Ty == a.Ty && m.amountRaw.V.Cmp(a.V) == 0 {
		return m.amountBox
	}
	a.V = new(big.Int).Set(a.V)
	m.amountRaw = a
	m.amountBox = a
	return m.amountBox
}

// canonKey renders v's canonical map key, interning the result so the
// steady-state hot path performs no string allocation.
func (m *mach) canonKey(v value.Value) string {
	buf := value.AppendCanonicalKey(m.scratch[:0], v)
	m.scratch = buf[:0]
	if s, ok := m.ikeys[string(buf)]; ok {
		return s
	}
	if len(m.ikeys) >= ikeysResetThreshold {
		m.ikeys = make(map[string]string)
	}
	s := string(buf)
	m.ikeys[s] = s
	return s
}

// clearForPool strips everything transaction-specific before the mach
// returns to the pool, so pooled machines can never leak values (or
// partially-written results after a mid-transition abort) into the
// next transaction.
func (m *mach) clearForPool() {
	clear(m.slots)
	clear(m.ffound)
	m.res = eval.Result{}
	m.ctx = nil
	clear(m.keyBuf[:cap(m.keyBuf)])
	m.keyBuf = m.keyBuf[:0]
	m.cks = m.cks[:0]
	m.argBuf = [3]value.Value{}
}

func runOps(m *mach, ops []stmtOp) error {
	for _, op := range ops {
		if err := op(m); err != nil {
			return err
		}
	}
	return nil
}
