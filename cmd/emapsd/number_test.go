package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
)

// numberEnd and digitsEnd are the walker's number grammar as it stood
// before parseNumber took it over, kept verbatim as the reference:
// numberEnd + strconv.ParseFloat is what parseNumber must reproduce.
//
// numberEnd returns the index just past the JSON number starting at i, or
// i when none starts there. It follows the JSON grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? exactly, so spellings that
// strconv accepts but JSON does not ("+1", ".5", "1.", "01") end the scan
// early and the body defers to encoding/json's verdict.
func numberEnd(data []byte, i int) int {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && data[j] >= '1' && data[j] <= '9':
		j = digitsEnd(data, j)
	default:
		return i
	}
	if j < len(data) && data[j] == '.' {
		k := digitsEnd(data, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		k := j + 1
		if k < len(data) && (data[k] == '+' || data[k] == '-') {
			k++
		}
		if j = digitsEnd(data, k); j == k {
			return i
		}
	}
	return j
}

func digitsEnd(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// refParseNumber is the two-pass parse parseNumber replaced.
func refParseNumber(data []byte, i int) (v float64, end int, ok bool) {
	j := numberEnd(data, i)
	if j == i {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(data[i:j]), 64)
	return v, j, err == nil
}

// checkParseNumber fails unless parseNumber and the reference agree on
// data at i: accept/reject, end index and, when accepted, the value's bits.
func checkParseNumber(t *testing.T, data []byte, i int) {
	t.Helper()
	v, end, ok := parseNumber(data, i)
	rv, rend, rok := refParseNumber(data, i)
	if ok != rok || end != rend {
		t.Fatalf("parseNumber(%q, %d) = end %d ok %v; numberEnd+ParseFloat end %d ok %v",
			data, i, end, ok, rend, rok)
	}
	if ok && math.Float64bits(v) != math.Float64bits(rv) {
		t.Fatalf("parseNumber(%q, %d) = %v (%#016x); strconv %v (%#016x)",
			data, i, v, math.Float64bits(v), rv, math.Float64bits(rv))
	}
}

// numberSeeds reach both conversion paths of parseNumber, the edges
// between them, every way an eight-digit chunk of its scan ends, and every
// way the scan itself ends.
var numberSeeds = []string{
	// 2^53 is exact; 2^53+1 is half-way between two float64s.
	"9007199254740992", "9007199254740993", "-9007199254740993",
	// 19 and 20 significant digits, with leading and trailing zeros.
	"1234567890123456789", "12345678901234567890", "0.0001234567890123456789",
	"12345678901234567890000", "1000000000000000000000", "0.00000000000000000001",
	"9999999999999999999", "18446744073709551615", "18446744073709551616e-3",
	// Signed zeros and exact powers.
	"-0", "0", "0e5", "-0.0e-999", "0.000", "1E+22", "1e22", "1e23", "1e-22", "1e-23",
	// The shortest forms the fleet sends: 16 and 17 significant digits.
	"62.537894736842105", "-0.10000000000000001", "6.25e-05", "45.12345678901234",
	// Halfway cases between adjacent float64s.
	"9007199254740995", "1.00000000000000011102230246251565404236316680908203125",
	"2.2250738585072011e-308",
	// Subnormals, overflow and underflow.
	"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "1e-400",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400",
	"1e99999999999999999999", "1e-99999999999999999999",
	// Spellings that are not JSON numbers: the scan ends as numberEnd's.
	"01", "1.", ".5", "+1", "-", "1e", "1e+", "-.5", "1.5e", "0x10", "Inf", "NaN", "",
	"1.5,2", "7]", "3 ", "-01", "1e5e5",
	// Whole eight-digit chunks: runs of exactly 8 and 16 digits.
	"12345678", "-87654321", "1234567812345678", "0.12345678", "12345678.87654321",
	"1.1234567812345678", "99999999e-8",
	// A non-digit at each offset 1–8 after a chunk, in both digit runs.
	"12345678,", "123456789]", "1234567890 ", "12345678901e1", "123456789012.5",
	"1234567890123x", "12345678901234-", "123456789012345E2",
	"0.12345678]", "0.123456789,", "1.1234567890e3", "2.12345678901 ", "3.123456789012x",
	"4.1234567890123e", "5.12345678901234.", "6.123456789012345]",
	// 7, 8 and 9 leading fractional zeros, inside and across a chunk.
	"0.00000001", "0.000000001", "0.0000000001", "0.0000000123456789",
	"-0.000000001234567891234567", "0.00000000",
	// 19- and 20-digit mantissas across a chunk boundary.
	"1234567.890123456789", "12345678.901234567890", "9999999999.999999999",
	"18446744073.709551616", "0.0000001234567890123456789",
	// The table's edge exponents and one past each.
	"1e-348", "1e-349", "1e347", "1e348", "9999999999999999999e-348",
	"1234567890123456789e-342", "0.1e348", "-1e347",
	// A half-way input that Eisel–Lemire leaves to strconv.
	"9007199254740993e0",
}

// FuzzParseNumber pins parseNumber to numberEnd + strconv.ParseFloat on
// arbitrary bytes at an arbitrary offset: the same verdict, the same end
// index and the same float64 bits.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s), uint(0))
	}
	f.Add([]byte(`[[62.5,-1e-3]]`), uint(2))
	f.Add([]byte(`{"workers":12}`), uint(11))
	f.Fuzz(func(t *testing.T, data []byte, off uint) {
		checkParseNumber(t, data, int(off%uint(len(data)+1)))
	})
}

// Every seed agrees with the reference on every offset, so the fuzz seeds
// also run on plain `go test` and under GOARCH=386.
func TestParseNumberSeeds(t *testing.T) {
	for _, s := range numberSeeds {
		for i := 0; i <= len(s); i++ {
			checkParseNumber(t, []byte(s), i)
		}
	}
}

// Randomly formatted floats: shortest forms, every 'e' and 'f' precision,
// and raw decimal mantissas with arbitrary exponents. All must match strconv
// bit for bit.
func TestParseNumberRandomFormats(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func() {
		checkParseNumber(t, buf, 0)
	}
	for k := 0; k < n; k++ {
		var f float64
		switch k % 3 {
		case 0: // any finite float64
			for f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0); f = math.Float64frombits(rng.Uint64()) {
			}
		case 1: // sensor-like temperatures
			f = 20 + 100*rng.Float64()
		default: // magnitudes across the table
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(70)-35))
		}
		buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
		check()
		buf = strconv.AppendFloat(buf[:0], f, 'e', rng.Intn(25), 64)
		check()
		buf = strconv.AppendFloat(buf[:0], f, 'E', rng.Intn(25), 64)
		check()
		if math.Abs(f) < 1e25 {
			buf = strconv.AppendFloat(buf[:0], f, 'f', rng.Intn(30), 64)
			check()
		}
		// A raw decimal mantissa of 1–22 digits with a small exponent.
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		buf = strconv.AppendUint(buf, rng.Uint64()>>uint(rng.Intn(64)), 10)
		for d := rng.Intn(4); d > 0; d-- {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(rng.Intn(81)-40), 10)
		check()
	}
}

// fleetBodies renders n estimate bodies of the benchmark fleet's shape:
// rows × 12 readings, shortest round-trip floats, from simulated 16×14
// traces of the fleet's two dies (t1 and athlon) at 12 spread cells.
func fleetBodies(tb testing.TB, n, rows int) [][]byte {
	tb.Helper()
	const m = 12
	grid := floorplan.Grid{W: 16, H: 14}
	var bodies [][]byte
	for di, name := range []string{"t1", "athlon"} {
		fp, err := floorplan.Named(name)
		if err != nil {
			tb.Fatal(err)
		}
		count := (n + 1 - di) / 2
		ds, err := dataset.Generate(fp, dataset.GenConfig{
			Grid: grid, Snapshots: count * rows, Seed: 1_000_003 + int64(di),
			Power: power.ConfigFor(fp, 0.75),
		})
		if err != nil {
			tb.Fatal(err)
		}
		for b := 0; b < count; b++ {
			body := []byte(`{"readings":[`)
			for r := 0; r < rows; r++ {
				if r > 0 {
					body = append(body, ',')
				}
				x := ds.Map(b*rows + r)
				body = append(body, '[')
				for s := 0; s < m; s++ {
					if s > 0 {
						body = append(body, ',')
					}
					body = strconv.AppendFloat(body, x[(2*s+1)*len(x)/(2*m)], 'g', -1, 64)
				}
				body = append(body, ']')
			}
			bodies = append(bodies, append(body, ']', '}'))
		}
	}
	return bodies
}

// Every reading of real fleet bodies decodes to strconv's bits, through the
// walker the daemon runs.
func TestParseNumberFleetBodies(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 8
	}
	buf := new(readingsBuf)
	for _, body := range fleetBodies(t, n, 128) {
		rows, _, _, ok := buf.parseRequest(body, false)
		if !ok {
			t.Fatalf("fleet body fell back to encoding/json: %.80s…", body)
		}
		var ref struct {
			Readings [][]float64 `json:"readings"`
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		sameRows(t, body[:80], rows, ref.Readings)
		// Eisel–Lemire decides every reading: none reaches strconv.
		for _, tok := range readingTokens(body) {
			mant, exp10, neg := decimalOf(t, tok)
			want, _ := strconv.ParseFloat(tok, 64)
			got, ok := eiselLemire(mant, exp10, neg)
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("eiselLemire on fleet reading %s = %v, %v; strconv %v", tok, got, ok, want)
			}
		}
	}
}

// readingTokens splits a fleet body's readings array into its numbers.
func readingTokens(body []byte) []string {
	s := strings.TrimSuffix(strings.TrimPrefix(string(body), `{"readings":[`), `]}`)
	return strings.FieldsFunc(s, func(r rune) bool { return r == '[' || r == ']' || r == ',' })
}

// decimalOf splits a JSON number of at most 19 significant digits into
// its digits and decimal exponent, independently of parseNumber.
func decimalOf(t *testing.T, s string) (mant uint64, exp10 int, neg bool) {
	t.Helper()
	neg = strings.HasPrefix(s, "-")
	s = strings.TrimPrefix(s, "-")
	if k := strings.IndexAny(s, "eE"); k >= 0 {
		e, err := strconv.Atoi(s[k+1:])
		if err != nil {
			t.Fatalf("exponent of %q: %v", s, err)
		}
		s, exp10 = s[:k], e
	}
	if k := strings.IndexByte(s, '.'); k >= 0 {
		exp10 -= len(s) - k - 1
		s = s[:k] + s[k+1:]
	}
	mant, err := strconv.ParseUint(strings.TrimLeft(s, "0"), 10, 64)
	if err != nil || len(strings.TrimLeft(s, "0")) > 19 {
		t.Fatalf("mantissa of %q: %v", s, err)
	}
	return mant, exp10, neg
}

// The shared table's entries are strconv's detailedPowersOfTen words.
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{0, 0x0000000000000000, 0x8000000000000000},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{22, 0x0000000000000000, 0x878678326EAC9000},
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[c.q-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("10^%d = {%#016x, %#016x}, want {%#016x, %#016x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
}

// Eisel–Lemire leaves an exact half-way product undecided, and the parse
// then takes strconv's answer, which rounds it to even.
func TestEiselLemireLeavesHalfWay(t *testing.T) {
	if f, ok := eiselLemire(9007199254740993, 0, false); ok {
		t.Fatalf("eiselLemire(2^53+1) decided %v; the half-way case is strconv's", f)
	}
	checkParseNumber(t, []byte("9007199254740993"), 0)
}

// An exponent too long to accumulate saturates, and no fraction, however
// long, pulls it back into the table: strconv decides, as for the
// reference scan.
func TestParseNumberSaturatedExponent(t *testing.T) {
	zeros := strings.Repeat("0", 9999)
	for _, s := range []string{
		"0." + zeros + "1e1000000", "-0." + zeros + "1e1000000", "0." + zeros + "1e10000",
		"0." + zeros + "1e9999", "0." + zeros + "1e10347", "1" + zeros + "e-10000",
		"1e99999", "1e-99999", "0." + zeros + "1e9990",
	} {
		checkParseNumber(t, []byte(s), 0)
	}
}

// --- the reply writer ---

// checkAppendNumber fails unless appendNumber writes strconv's bytes.
func checkAppendNumber(t *testing.T, v float64) {
	t.Helper()
	var a, b [40]byte
	got := appendNumber(a[:0], v)
	want := strconv.AppendFloat(b[:0], v, 'g', -1, 64)
	if string(got) != string(want) {
		t.Fatalf("appendNumber(%#016x) = %s, strconv %s", math.Float64bits(v), got, want)
	}
}

// FuzzAppendNumber pins appendNumber to strconv.AppendFloat(v, 'g', -1,
// 64) on arbitrary float64 bits, NaN and ±Inf included.
func FuzzAppendNumber(f *testing.F) {
	for _, v := range []float64{0, 1, 62.537894736842105, 1e21, 5e-324, math.MaxFloat64, math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkAppendNumber(t, math.Float64frombits(b))
	})
}

// appendNumber writes strconv's bytes for random bit patterns, sensor-like
// temperatures, every power of two and of ten with both neighbours, the
// subnormals' edges, ±0, the range's ends, the %e/%f switch points and the
// integers below 10^5.
func TestAppendNumberAgreesWithStrconv(t *testing.T) {
	n := 3_000_000
	if testing.Short() || raceEnabled {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < n; k++ {
		checkAppendNumber(t, math.Float64frombits(rng.Uint64()))
	}
	for k := 0; k < n/3; k++ {
		checkAppendNumber(t, 20+100*rng.Float64())
		checkAppendNumber(t, -40+rng.NormFloat64()*30)
		checkAppendNumber(t, rng.Float64())
	}
	around := func(v float64) {
		for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			checkAppendNumber(t, w)
			checkAppendNumber(t, -w)
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -324; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		around(p)
	}
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1),
		math.MaxFloat64, 1e-5, 1e-4, 1e6, 1e21, 999999.5, 123456.7, 0.00012345,
	} {
		around(v)
	}
	for i := 0; i <= 100_000; i++ {
		checkAppendNumber(t, float64(i))
		checkAppendNumber(t, math.Float64frombits(uint64(i))) // subnormal
	}
	checkAppendNumber(t, math.Copysign(0, -1))
	checkAppendNumber(t, math.NaN())
	checkAppendNumber(t, math.Inf(1))
}

// BenchmarkDecodeEstimateRequest decodes one fleet-shaped JSON estimate
// body (128 × 12 shortest-form readings) through the pooled walker, as
// serve does after the body read.
func BenchmarkDecodeEstimateRequest(b *testing.B) {
	body := fleetBodies(b, 1, 128)[0]
	buf := new(readingsBuf)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := buf.parseRequest(body, false); !ok {
			b.Fatal("fleet body fell back to encoding/json")
		}
	}
}
