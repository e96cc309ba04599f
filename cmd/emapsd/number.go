package main

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The daemon's JSON numbers convert both ways through one table of powers
// of ten: readings parse by Eisel–Lemire (Lemire, "Number Parsing at a
// Gigabyte per Second", https://arxiv.org/abs/2101.11408) and replies are
// written by Schubfach (Giulietti, "The Schubfach way to render doubles",
// 2020). Both are exact where they decide, so every parsed bit is
// strconv.ParseFloat's and every written byte strconv.AppendFloat's;
// strconv remains only the fallback for what they leave undecided.

// pow10Min and pow10Max bound the decimal exponents the table holds.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10 holds 10^q for q in [pow10Min, pow10Max] as 128-bit words {lo, hi},
// truncated and normalised so that hi's top bit is set: the layout of
// strconv's detailedPowersOfTen. It is built once, exactly, from math/big.
var pow10 = buildPow10()

func buildPow10() (t [pow10Max - pow10Min + 1][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	put := func(q int, x *big.Int) { // x has exactly 128 bits
		var w big.Int
		t[q-pow10Min] = [2]uint64{w.And(x, mask).Uint64(), w.Rsh(x, 64).Uint64()}
	}
	ten := big.NewInt(10)
	p, x := big.NewInt(1), new(big.Int)
	for q := 0; q <= pow10Max; q++ { // the top 128 bits of 10^q
		if n := p.BitLen(); n > 128 {
			x.Rsh(p, uint(n-128))
		} else {
			x.Lsh(p, uint(128-n))
		}
		put(q, x)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for q := -1; q >= pow10Min; q-- {
		// 10^|q| lies in [2^(n−1), 2^n), so 2^(127+n) / 10^|q| has 128 bits.
		x.Lsh(x.SetInt64(1), uint(127+p.BitLen()))
		put(q, x.Quo(x, p))
		p.Mul(p, ten)
	}
	return
}

// --- readings ---

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
// The value is always strconv.ParseFloat's, bit for bit. Digits accumulate
// eight at a time (digitRun). A mantissa of at most 19 digits, which is
// then exact, with a decimal exponent inside the table goes to
// Eisel–Lemire, which returns the correctly rounded value whenever it
// decides, and a correctly rounded conversion has one answer. What it
// leaves undecided (a half-way case it cannot settle, subnormals,
// overflow), longer mantissas and exponents outside the table go to strconv
// on the same bytes.
func parseNumber(data []byte, i int) (v float64, end int, ok bool) {
	j := i
	neg := j < len(data) && data[j] == '-'
	if neg {
		j++
	}
	var mant uint64 // the significant digits mod 2^64; exact while nd ≤ 19
	nd := 0         // significant digits read
	exp10 := 0      // |value| = mant · 10^exp10 while nd ≤ 19
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && data[j]-'1' <= 8:
		// An integer part is short (a temperature's has two digits), and
		// a predicted byte loop finds its end sooner than a chunk's
		// data-dependent count; from its ninth digit on it runs in chunks.
		k := j
		for ; j < len(data) && data[j]-'0' <= 9; j++ {
			mant = mant*10 + uint64(data[j]-'0')
			if j-k == 7 {
				j, mant = digitRun(data, j+1, mant)
				break
			}
		}
		nd = j - k
	default:
		return 0, i, false
	}
	if j < len(data) && data[j] == '.' {
		k := j + 1
		if nd == 0 { // zeros ahead of the first nonzero digit are not significant
			for k < len(data) && data[k] == '0' {
				k++
			}
		}
		var end int
		if end, mant = digitRun(data, k, mant); end == j+1 {
			return 0, i, false
		}
		nd += end - k
		exp10 = j + 1 - end
		j = end
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		k := j + 1
		eneg := k < len(data) && data[k] == '-'
		if k < len(data) && (data[k] == '+' || data[k] == '-') {
			k++
		}
		start, e := k, 0
		for ; k < len(data) && data[k]-'0' <= 9; k++ {
			if e < 10000 { // saturates below
				e = e*10 + int(data[k]-'0')
			}
		}
		if k == start {
			return 0, i, false
		}
		switch {
		case e >= 10000:
			// Saturated: a fraction's offset must not pull it back into
			// the table, so strconv decides.
			exp10 = pow10Max + 1
		case eneg:
			exp10 -= e
		default:
			exp10 += e
		}
		j = k
	}

	switch {
	case nd == 0: // every digit a zero
		if neg {
			return math.Copysign(0, -1), j, true
		}
		return 0, j, true
	case nd <= 19:
		if f, ok := eiselLemire(mant, exp10, neg); ok {
			return f, j, true
		}
	}
	f, err := strconv.ParseFloat(string(data[i:j]), 64)
	return f, j, err == nil
}

// uint64pow10 holds 10^n for n in [0, 19], padded to a power of two so
// that a masked index needs no bounds check.
var uint64pow10 = [32]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digitRun reads the run of decimal digits at data[j:] onto the mantissa
// mant and returns the index past the run with the new mantissa: the byte
// loop's mant = mant·10 + d, mod 2^64, taken eight digits at a time. Each
// chunk is one little-endian load, one digit test (chunkDigits) and one
// multiply tree (eightDigits), and the run's last, partial chunk comes
// from the same load. Two chunks are loaded and tested at once, so a run
// of 9–15 digits, a reading's fraction, costs one step. Only a run that
// reaches the last seven bytes of data takes bytes one by one.
func digitRun(data []byte, j int, mant uint64) (int, uint64) {
	for len(data)-j >= 16 {
		d1, n1 := chunkDigits(binary.LittleEndian.Uint64(data[j : j+8 : j+8]))
		d2, n2 := chunkDigits(binary.LittleEndian.Uint64(data[j+8 : j+16 : j+16]))
		if n1 < 8 {
			return j + int(n1), mant*uint64pow10[n1&31] + eightDigits(d1)
		}
		mant = (mant*1e8+eightDigits(d1))*uint64pow10[n2&31] + eightDigits(d2)
		j += 8 + int(n2)
		if n2 < 8 {
			return j, mant
		}
	}
	for len(data)-j >= 8 {
		d, n := chunkDigits(binary.LittleEndian.Uint64(data[j : j+8 : j+8]))
		mant = mant*uint64pow10[n&31] + eightDigits(d)
		j += int(n)
		if n < 8 {
			return j, mant
		}
	}
	for ; j < len(data) && data[j]-'0' <= 9; j++ {
		mant = mant*10 + uint64(data[j]-'0')
	}
	return j, mant
}

// chunkDigits finds the n leading digits of the eight bytes in w (first
// byte lowest) and returns their values, moved to the last n bytes so that
// the places before them read as zeros. A byte is a digit iff its high
// nibble is 3 and stays 3 after adding 6; a carry out of the first
// non-digit can only spoil the bytes after it, and so can a borrow of the
// subtraction, which the shift then drops.
func chunkDigits(w uint64) (d uint64, n uint) {
	m := (w&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030) |
		((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030)
	n = uint(bits.TrailingZeros64(m)) >> 3
	return (w - 0x3030303030303030) << (64 - 8*n), n
}

// eightDigits is the value of eight decimal digit values packed one per
// byte, the first digit in the lowest byte: pairs, then quads, then the
// two quads by two multiplies.
func eightDigits(d uint64) uint64 {
	d = d*10 + d>>8 // byte 2k: the pair d[2k]·10 + d[2k+1]
	const mask = 0x000000FF000000FF
	return uint64(uint32(((d&mask)*(100+1000000<<32) + (d>>16&mask)*(1+10000<<32)) >> 32))
}

// eiselLemire converts mant · 10^exp10 (mant ≠ 0) to the nearest float64,
// ties to even, as strconv's eiselLemire64 does over the same table. ok is
// false when it cannot decide: exp10 outside the table, a product too
// close to a half-way point, or a result that is subnormal or overflows.
// When ok, the result is the correctly rounded one.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	p := &pow10[exp10-pow10Min]
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz) & 63
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(mant, p[1])
	if xHi&0x1FF == 0x1FF && xLo+mant < mant { // widen to the low word
		yHi, yLo := bits.Mul64(mant, p[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	retMant := xHi >> ((msb + 9) & 63)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 { // half-way, undecided
		return 0, false
	}
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, zero or beyond the range
		return 0, false
	}
	b := retExp2<<52 | retMant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// --- replies ---

// appendNumber appends v as strconv.AppendFloat(dst, v, 'g', -1, 64)
// does, byte for byte: the shortest decimal that reads back as v, the
// closest to v among those, ties to an even last digit (shortest); laid
// out as %e, with at least two exponent digits, when the decimal exponent
// is below −4 or at least 6, and as %f otherwise; −0 as "-0". NaN and ±Inf
// go to strconv. The digits are rendered eight at a time (eightASCII).
func appendNumber(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	be := int(b>>52) & 0x7FF
	t := b & (1<<52 - 1)
	if be == 0x7FF {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	var s uint64
	var e10 int
	switch {
	case be != 0:
		c, mq := 1<<52|t, 1075-be
		if 0 < mq && mq < 53 && c>>mq<<mq == c {
			s = c >> mq // an integer below 2^53: its own shortest digits
			break
		}
		s, e10 = shortest(-mq, c)
	case t != 0: // subnormal
		s, e10 = shortest(-1074, t)
	default:
		return append(dst, '0')
	}
	for s%10 == 0 {
		s /= 10
		e10++
	}

	// The digits, eight at a time, right-aligned in buf.
	var buf [24]byte
	nd := decimalLen(s)
	binary.LittleEndian.PutUint64(buf[16:], eightASCII(s%1e8))
	if nd > 8 {
		binary.LittleEndian.PutUint64(buf[8:], eightASCII(s/1e8%1e8))
		if nd > 16 {
			binary.LittleEndian.PutUint64(buf[:8], eightASCII(s/1e16))
		}
	}
	digs := buf[len(buf)-nd:]
	dp := nd + e10 // the value is 0.digs × 10^dp
	switch {
	case dp < -3 || dp > 6:
		dst = append(dst, digs[0])
		if nd > 1 {
			dst = append(dst, '.')
			dst = append(dst, digs[1:]...)
		}
		exp, sign := dp-1, byte('+')
		if exp < 0 {
			exp, sign = -exp, '-'
		}
		dst = append(dst, 'e', sign)
		if exp >= 100 {
			dst = append(dst, byte('0'+exp/100))
			exp %= 100
		}
		return append(dst, digitPairs[2*exp], digitPairs[2*exp+1])
	case dp <= 0:
		dst = append(dst, "0.000"[:2-dp]...)
		return append(dst, digs...)
	case dp >= nd:
		dst = append(dst, digs...)
		return append(dst, "00000"[:dp-nd]...)
	default:
		dst = append(dst, digs[:dp]...)
		dst = append(dst, '.')
		return append(dst, digs[dp:]...)
	}
}

// decimalLen is the number of decimal digits of x > 0.
func decimalLen(x uint64) int {
	n := bits.Len64(x) * 1233 >> 12 // ⌊log10 2^len⌋, one short or exact
	if x >= uint64pow10[n&31] {
		n++
	}
	return n
}

// eightASCII renders x < 10^8 as eight ASCII digits, leading zeros
// included, the first digit in the lowest byte: x splits into two
// four-digit halves in 32-bit lanes, each half into two pairs in 16-bit
// lanes, each pair into two bytes. The quotients are exact reciprocal
// multiplies: ⌊y·10486/2^20⌋ = ⌊y/100⌋ for y < 10^4, and
// ⌊y·103/2^10⌋ = ⌊y/10⌋ for y < 100.
func eightASCII(x uint64) uint64 {
	v := x/10000 | x%10000<<32
	q := v * 10486 >> 20 & 0x0000007F0000007F
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000F000F000F000F
	v = q | (v-q*10)<<8
	return v + 0x3030303030303030
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortest is Schubfach's digit search for v = c · 2^q, c < 2^53: it
// returns s and k with s · 10^k the shortest decimal inside v's rounding
// interval, the closest to v among those, ties to even s. The estimates
// of v · 10^−k come from rop over g(k) = floor(10^−k · 2^−r) + 1, which is
// the shared table's entry for 10^−k shifted right by two, plus one.
// Java's Schubfach renders at least two digits: it tries one digit fewer
// only from s ≥ 100 and scales the two smallest subnormals by ten.
// strconv has no such minimum, so here one digit fewer is tried from
// s ≥ 10, which only subnormals below 10^−322 reach, and no input is
// scaled; the writer's tests pin every subnormal of that range.
func shortest(q int, c uint64) (uint64, int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 { // regular spacing
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // the lower neighbour is half as far
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	p := &pow10[-k-pow10Min]
	gHi, gLo := p[1]>>2, (p[1]<<62|p[0]>>2)+1
	if gLo == 0 {
		gHi++
	}
	g1, g0 := gHi<<1|gLo>>63, gLo&(1<<63-1) // g = g1·2^63 + g0
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)
	s := vb >> 2
	if s >= 10 {
		// One digit fewer: u' = 10·floor(s/10) and w' = u' + 10.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both lie inside: the closer, ties to even.
	cmp := int64(vb) - int64((s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is g · cp / 2^127 rounded to odd, from the 63-bit halves of g.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	const m63 = 1<<63 - 1
	return y1 + z>>63 | (z&m63+m63)>>63
}

// flog10pow2 is floor(q·log10 2), flog10ThreeQuartersPow2 is
// floor(log10(¾·2^q)) and flog2pow10 is floor(e·log2 10), each exact over
// the exponents a float64 reaches.
func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }
