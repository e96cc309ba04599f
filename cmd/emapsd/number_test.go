package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
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
// between them, and every way its scan ends.
var numberSeeds = []string{
	// Clinger's edge: 2^53 is exact; 2^53+1 is not, and goes to strconv.
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
	}
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
