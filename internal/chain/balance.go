package chain

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
	"strconv"
)

// Balance is a native-token amount: an unsigned 128-bit integer held
// as two words, Hi·2^64 + Lo. 128 bits is the native width — Scilla
// types _amount and _balance as Uint128 — and a Balance has no pointer,
// so a table of them costs the collector nothing.
type Balance struct {
	Hi, Lo uint64
}

// The bounds Accounts.Apply checks before it writes any row.
var (
	ErrBalanceNegative = errors.New("balance would go negative")
	ErrBalanceOverflow = errors.New("balance would reach 2^128")
)

// BalanceOf returns v as a Balance.
func BalanceOf(v uint64) Balance { return Balance{Lo: v} }

// absBalance returns |x| as a Balance; ok is false when |x| ≥ 2^128.
func absBalance(x *big.Int) (Balance, bool) {
	if x.BitLen() > 128 {
		return Balance{}, false
	}
	var buf [16]byte
	x.FillBytes(buf[:])
	return Balance{Hi: binary.BigEndian.Uint64(buf[:8]), Lo: binary.BigEndian.Uint64(buf[8:])}, true
}

// IsZero reports whether b is 0.
func (b Balance) IsZero() bool { return b == Balance{} }

// Big sets z to b and returns z. It reuses z's words, so loading a
// balance into a scratch big.Int allocates nothing.
func (b Balance) Big(z *big.Int) *big.Int {
	if b.Hi == 0 {
		return z.SetUint64(b.Lo)
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], b.Hi)
	binary.BigEndian.PutUint64(buf[8:], b.Lo)
	return z.SetBytes(buf[:])
}

// AppendDecimal appends b in base 10: the bytes big.Int.Append writes
// for the same value, without allocating.
func (b Balance) AppendDecimal(dst []byte) []byte {
	// Peel 19-digit groups off the bottom until the rest fits a word;
	// 2^128-1 has 39 digits, so at most two groups are peeled.
	const group = 1e19
	var digits [38]byte
	i := len(digits)
	for b.Hi != 0 {
		var r uint64
		b.Hi, r = bits.Div64(0, b.Hi, group)
		b.Lo, r = bits.Div64(r, b.Lo, group)
		for k := 0; k < 19; k++ {
			i--
			digits[i] = byte('0' + r%10)
			r /= 10
		}
	}
	return append(strconv.AppendUint(dst, b.Lo, 10), digits[i:]...)
}

// String returns b in base 10.
func (b Balance) String() string { return string(b.AppendDecimal(nil)) }

// add returns b + d for a signed d, or ErrBalanceNegative /
// ErrBalanceOverflow when the sum leaves [0, 2^128).
func (b Balance) add(d *big.Int) (Balance, error) {
	m, fits := absBalance(d)
	if d.Sign() < 0 {
		lo, borrow := bits.Sub64(b.Lo, m.Lo, 0)
		hi, borrow := bits.Sub64(b.Hi, m.Hi, borrow)
		if !fits || borrow != 0 {
			return Balance{}, ErrBalanceNegative
		}
		return Balance{Hi: hi, Lo: lo}, nil
	}
	lo, carry := bits.Add64(b.Lo, m.Lo, 0)
	hi, carry := bits.Add64(b.Hi, m.Hi, carry)
	if !fits || carry != 0 {
		return Balance{}, ErrBalanceOverflow
	}
	return Balance{Hi: hi, Lo: lo}, nil
}
