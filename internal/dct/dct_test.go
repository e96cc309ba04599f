package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

func TestBasisVectorsOrthonormal(t *testing.T) {
	g := floorplan.Grid{W: 6, H: 5}
	freqs := ZigZag(g, 10)
	b := BasisMatrix(g, freqs)
	if !mat.Gram(b).Equal(mat.Identity(10), 1e-10) {
		t.Fatal("DCT basis vectors not orthonormal")
	}
}

func TestBasisVectorDCIsConstant(t *testing.T) {
	g := floorplan.Grid{W: 4, H: 3}
	v := BasisVector(g, Freq{0, 0})
	want := 1 / math.Sqrt(float64(g.N()))
	for _, x := range v {
		if !almostEqual(x, want, 1e-12) {
			t.Fatalf("DC basis element %v, want %v", x, want)
		}
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasisVectorOutOfRangePanics(t *testing.T) {
	g := floorplan.Grid{W: 4, H: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BasisVector(g, Freq{3, 0})
}

func TestZigZagOrder(t *testing.T) {
	g := floorplan.Grid{W: 4, H: 4}
	zz := ZigZag(g, 6)
	want := []Freq{{0, 0}, {0, 1}, {1, 0}, {2, 0}, {1, 1}, {0, 2}}
	if len(zz) != len(want) {
		t.Fatalf("len = %d", len(zz))
	}
	for i := range want {
		if zz[i] != want[i] {
			t.Fatalf("zigzag[%d] = %v, want %v", i, zz[i], want[i])
		}
	}
}

func TestZigZagCoversAll(t *testing.T) {
	g := floorplan.Grid{W: 5, H: 3}
	zz := ZigZag(g, g.N())
	if len(zz) != g.N() {
		t.Fatalf("covers %d of %d", len(zz), g.N())
	}
	seen := make(map[Freq]bool)
	for _, f := range zz {
		if seen[f] {
			t.Fatalf("duplicate frequency %v", f)
		}
		if f.U < 0 || f.U >= g.H || f.V < 0 || f.V >= g.W {
			t.Fatalf("frequency %v out of range", f)
		}
		seen[f] = true
	}
	// Requesting more than N clamps.
	if len(ZigZag(g, g.N()+100)) != g.N() {
		t.Fatal("ZigZag did not clamp")
	}
}

func TestZigZagNonDecreasingDiagonals(t *testing.T) {
	g := floorplan.Grid{W: 8, H: 8}
	zz := ZigZag(g, 30)
	for i := 1; i < len(zz); i++ {
		if zz[i].U+zz[i].V < zz[i-1].U+zz[i-1].V {
			t.Fatalf("diagonal order violated at %d: %v after %v", i, zz[i], zz[i-1])
		}
	}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	g := floorplan.Grid{W: 7, H: 6}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, g.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rec := inverse(g, Transform2D(g, x))
	for i := range x {
		if !almostEqual(rec[i], x[i], 1e-10) {
			t.Fatalf("round trip failed at %d: %v vs %v", i, rec[i], x[i])
		}
	}
}

func TestTransformParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	g := floorplan.Grid{W: 5, H: 9}
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, g.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := Transform2D(g, x)
	if !almostEqual(mat.Norm2(x), mat.Norm2(c), 1e-10) {
		t.Fatalf("Parseval violated: %v vs %v", mat.Norm2(x), mat.Norm2(c))
	}
}

func TestTransformMatchesBasisVectorInnerProduct(t *testing.T) {
	// coef[f] must equal ⟨x, φ_f⟩.
	g := floorplan.Grid{W: 4, H: 5}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, g.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := Transform2D(g, x)
	for _, f := range []Freq{{0, 0}, {1, 0}, {0, 2}, {3, 3}, {4, 1}} {
		want := mat.Dot(x, BasisVector(g, f))
		got := c[Coefficient(g, f)]
		if !almostEqual(got, want, 1e-10) {
			t.Fatalf("coef %v = %v, want %v", f, got, want)
		}
	}
}

func TestTransformDeltaFunction(t *testing.T) {
	// Transform of a pure basis function is a unit impulse at its frequency.
	g := floorplan.Grid{W: 6, H: 4}
	f := Freq{2, 3}
	c := Transform2D(g, BasisVector(g, f))
	for i, v := range c {
		want := 0.0
		if i == Coefficient(g, f) {
			want = 1
		}
		if !almostEqual(v, want, 1e-10) {
			t.Fatalf("coef[%d] = %v, want %v", i, v, want)
		}
	}
}

// Property: round trip is exact for random grids and maps.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := floorplan.Grid{W: 2 + r.Intn(9), H: 2 + r.Intn(9)}
		x := make([]float64, g.N())
		for i := range x {
			x[i] = r.NormFloat64() * 50
		}
		rec := inverse(g, Transform2D(g, x))
		for i := range x {
			if math.Abs(rec[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: transform is linear.
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := floorplan.Grid{W: 2 + r.Intn(6), H: 2 + r.Intn(6)}
		x := make([]float64, g.N())
		y := make([]float64, g.N())
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		a, b := r.NormFloat64(), r.NormFloat64()
		comb := make([]float64, g.N())
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		cx, cy, cc := Transform2D(g, x), Transform2D(g, y), Transform2D(g, comb)
		for i := range cc {
			if math.Abs(cc[i]-(a*cx[i]+b*cy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// inverse rebuilds a map from a full coefficient vector as Σ c_f·φ_f over
// every DCT basis vector.
func inverse(g floorplan.Grid, coef []float64) []float64 {
	out := make([]float64, g.N())
	for _, f := range ZigZag(g, g.N()) {
		c := coef[Coefficient(g, f)]
		for i, v := range BasisVector(g, f) {
			out[i] += c * v
		}
	}
	return out
}
