package mat

// Hooks for the external tests of band_thermal_test.go, which import the
// thermal package (a cycle from package mat) to run the banded solver on
// the thermal model's own matrices.
var (
	CheckBandBits         = checkBandBits
	NewBandCholeskyKernel = newBandCholesky
	HasAVX                = hasAVX
)
