package main

import (
	"math"
	"strconv"
)

// parseNumber scans the JSON number that starts at data[i] and converts it
// to float64 in the same pass: the grammar check and the decimal mantissa
// and exponent accumulate together, so no digit is read twice. end is the
// index just past the number, or i when none starts there. The scan follows
// the JSON grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? exactly,
// so spellings that strconv accepts but JSON does not ("+1", ".5", "1.",
// "01") end it early and the body defers to encoding/json's verdict. ok is
// false when no number starts at i, or when the number lies outside the
// float64 range (strconv.ParseFloat's ErrRange).
//
// The value is always strconv.ParseFloat's, bit for bit. A mantissa of at
// most 2^53 with a decimal exponent in [−22, 22] takes Clinger's fast path:
// both it and 10^|exponent| are exact float64s, so one IEEE divide or
// multiply rounds the exact value correctly, and a correctly rounded
// conversion has one answer. Every other number goes to strconv on the
// same bytes.
func parseNumber(data []byte, i int) (v float64, end int, ok bool) {
	j := i
	neg := j < len(data) && data[j] == '-'
	if neg {
		j++
	}
	var mant uint64 // the significant digits; exact while nd ≤ 19
	nd := 0         // significant digits read
	exp10 := 0      // |value| = mant · 10^exp10 while nd ≤ 19
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && data[j] >= '1' && data[j] <= '9':
		for ; j < len(data) && data[j]-'0' <= 9; j++ {
			mant = mant*10 + uint64(data[j]-'0')
			nd++
		}
	default:
		return 0, i, false
	}
	if j < len(data) && data[j] == '.' {
		k := j + 1
		for ; k < len(data) && data[k]-'0' <= 9; k++ {
			if d := data[k] - '0'; nd > 0 || d != 0 { // past any leading zeros
				mant = mant*10 + uint64(d)
				nd++
			}
			exp10--
		}
		if k == j+1 {
			return 0, i, false
		}
		j = k
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		k := j + 1
		eneg := k < len(data) && data[k] == '-'
		if k < len(data) && (data[k] == '+' || data[k] == '-') {
			k++
		}
		start, e := k, 0
		for ; k < len(data) && data[k]-'0' <= 9; k++ {
			if e < 10000 { // any larger exponent is out of range anyway
				e = e*10 + int(data[k]-'0')
			}
		}
		if k == start {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
		j = k
	}

	switch {
	case nd == 0: // every digit a zero
		if neg {
			return math.Copysign(0, -1), j, true
		}
		return 0, j, true
	case nd <= 19 && mant <= 1<<53 && exp10 >= -22 && exp10 <= 22:
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / float64pow10[-exp10], j, true
		}
		return f * float64pow10[exp10], j, true
	}
	f, err := strconv.ParseFloat(string(data[i:j]), 64)
	return f, j, err == nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}
