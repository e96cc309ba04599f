package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromDataNoCopy(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromData(2, 3, d)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	d[5] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("NewFromData must alias the provided slice")
	}
}

func TestNewFromDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewFromData(2, 3, []float64{1, 2})
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := Diag([]float64{2, 5})
	if m.At(0, 0) != 2 || m.At(1, 1) != 5 || m.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", m)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	if m.At(0, 1) != 3.5 {
		t.Fatal("Set/At round trip failed")
	}
	m.Add(0, 1, 0.5)
	if m.At(0, 1) != 4 {
		t.Fatal("Add failed")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestRowIsView(t *testing.T) {
	m := New(2, 3)
	r := m.Row(1)
	r[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row must return a view")
	}
}

func TestColIsCopy(t *testing.T) {
	m := New(2, 3)
	c := m.Col(1)
	c[0] = 9
	if m.At(0, 1) != 0 {
		t.Fatal("Col must return a copy")
	}
}

func TestSetRowSetCol(t *testing.T) {
	m := New(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{30, 60})
	if m.At(0, 0) != 1 || m.At(0, 2) != 30 || m.At(1, 2) != 60 {
		t.Fatalf("SetRow/SetCol wrong: %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tt := m.T()
	if r, c := tt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d)", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomMatrix(5, 7, rng)
	if !m.T().T().Equal(m, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewFromData(1, 2, []float64{11, 22})
	b := NewFromData(1, 2, []float64{10, 20})
	a.SubMatrix(b)
	if a.At(0, 0) != 1 || a.At(0, 1) != 2 {
		t.Fatalf("SubMatrix wrong: %v", a)
	}
	a.Scale(3)
	if a.At(0, 1) != 6 {
		t.Fatalf("Scale wrong: %v", a)
	}
}

func TestSelectRows(t *testing.T) {
	m := NewFromData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s := m.SelectRows([]int{2, 0, 2})
	want := NewFromData(3, 2, []float64{5, 6, 1, 2, 5, 6})
	if !s.Equal(want, 0) {
		t.Fatalf("SelectRows = %v, want %v", s, want)
	}
}

func TestSelectCols(t *testing.T) {
	m := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := m.SelectCols([]int{2, 1})
	want := NewFromData(2, 2, []float64{3, 2, 6, 5})
	if !s.Equal(want, 0) {
		t.Fatalf("SelectCols = %v, want %v", s, want)
	}
}

func TestSlice(t *testing.T) {
	m := NewFromData(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := m.Slice(1, 3, 0, 2)
	want := NewFromData(2, 2, []float64{4, 5, 7, 8})
	if !s.Equal(want, 0) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewFromData(2, 2, []float64{3, 0, 0, 4})
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-14) {
		t.Fatalf("‖m‖F = %v, want 5", m.FrobeniusNorm())
	}
	if New(0, 0).FrobeniusNorm() != 0 {
		t.Fatal("empty norm should be 0")
	}
}

func TestFrobeniusNormOverflowGuard(t *testing.T) {
	m := NewFromData(1, 2, []float64{1e200, 1e200})
	got := m.FrobeniusNorm()
	want := 1e200 * math.Sqrt(2)
	if math.IsInf(got, 0) || !almostEqual(got/want, 1, 1e-12) {
		t.Fatalf("overflow guard failed: got %v want %v", got, want)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewFromData(1, 3, []float64{-7, 2, 5})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", m.MaxAbs())
	}
}

func TestIsSymmetric(t *testing.T) {
	s := NewFromData(2, 2, []float64{1, 2, 2, 3})
	if !s.IsSymmetric(0) {
		t.Fatal("symmetric matrix misreported")
	}
	a := NewFromData(2, 2, []float64{1, 2, 2.5, 3})
	if a.IsSymmetric(0.1) {
		t.Fatal("asymmetric matrix misreported")
	}
	if New(2, 3).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

// Property: for random matrices, (A−B)ᵀ == Aᵀ−Bᵀ.
func TestTransposeAdditivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		a := RandomMatrix(rows, cols, r)
		b := RandomMatrix(rows, cols, r)
		left := a.Clone().SubMatrix(b).T()
		right := a.T().SubMatrix(b.T())
		return left.Equal(right, 1e-12)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
