package mat

import "math/rand"

// RandomMatrix returns an r×c matrix of standard normal entries drawn from
// rng.
func RandomMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// RandomOrthonormal returns an n×k matrix with orthonormal columns spanning a
// uniformly random subspace (thin Q of a Gaussian matrix).
func RandomOrthonormal(n, k int, rng *rand.Rand) *Matrix {
	if k > n {
		panic("mat: RandomOrthonormal requires k <= n")
	}
	return Orthonormalize(RandomMatrix(n, k, rng))
}

// RandomSPD returns a random symmetric positive-definite n×n matrix
// A = BᵀB + εI, useful in tests.
func RandomSPD(n int, rng *rand.Rand) *Matrix {
	b := RandomMatrix(n, n, rng)
	a := Gram(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.5)
	}
	return a
}
