package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/basis"
	"repro/internal/dataset"
	"repro/internal/floorplan"
)

// digestFloats hashes the IEEE-754 bits of vs, little-endian.
func digestFloats(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCreatePathDigestsPinned pins the exact bits the design-time flow
// produces — the trained basis Ψ, its eigenvalues and the greedy sensors —
// on one small die per PCA side, so no kernel change can move a last bit
// unnoticed. The digests were taken from the element-wise kernels the
// contiguous ones replaced, and are kept per GOARCH: math.Hypot is x87
// assembly on 386 and SSE2 assembly on amd64, so the two may round
// differently (on these dies they happen to agree).
func TestCreatePathDigestsPinned(t *testing.T) {
	type digests struct{ psi, importance, sensors string }
	want := map[string]map[string]digests{
		"amd64": {
			"gram":       {"42ccdc09aedddc575800dd1e18971f08c9374813ecc7c9ada7e21f3f1f8ab841", "d7c48b75b834ff2b891e001c4da9b7fafcd04da9600e4cb475a66e6e523dc9b8", "13526b2d40abddfa2386c86e66a9c395b300acd2f4fea6e326101477aef664e2"},
			"covariance": {"89a4fab15f6b5b7bffe165462faa25a8100478e8ef5a19a224a948a91fb89648", "e9f8fee5928768f11a11c6e799d33a6bc6e60a29655dd4829deb7a9f2c7a5ecd", "2af2bd43f481102a1cf25ce0ad215e194adab51b1ea38a0e5596b777d07ae217"},
		},
		"386": {
			"gram":       {"42ccdc09aedddc575800dd1e18971f08c9374813ecc7c9ada7e21f3f1f8ab841", "d7c48b75b834ff2b891e001c4da9b7fafcd04da9600e4cb475a66e6e523dc9b8", "13526b2d40abddfa2386c86e66a9c395b300acd2f4fea6e326101477aef664e2"},
			"covariance": {"89a4fab15f6b5b7bffe165462faa25a8100478e8ef5a19a224a948a91fb89648", "e9f8fee5928768f11a11c6e799d33a6bc6e60a29655dd4829deb7a9f2c7a5ecd", "2af2bd43f481102a1cf25ce0ad215e194adab51b1ea38a0e5596b777d07ae217"},
		},
	}[runtime.GOARCH]
	if want == nil {
		t.Skipf("no digests pinned for GOARCH=%s", runtime.GOARCH)
	}
	cases := []struct {
		name   string
		grid   floorplan.Grid
		t      int
		method basis.PCAMethod
	}{
		{"gram", floorplan.Grid{W: 16, H: 14}, 80, basis.PCAGram},
		{"covariance", floorplan.Grid{W: 12, H: 10}, 150, basis.PCACovariance},
	}
	for _, c := range cases {
		ds, err := dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{Grid: c.grid, Snapshots: c.t, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		mdl, err := Train(ds, TrainOptions{KMax: 8, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if mdl.Basis.Method != c.method {
			t.Fatalf("%s: trained on the %v side", c.name, mdl.Basis.Method)
		}
		sensors, err := mdl.PlaceSensors(10, PlaceOptions{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]float64, len(sensors))
		for i, s := range sensors {
			cells[i] = float64(s)
		}
		got := digests{digestFloats(mdl.Basis.Psi.Data()), digestFloats(mdl.Basis.Importance), digestFloats(cells)}
		if got != want[c.name] {
			t.Errorf("%s: digests %+v, want %+v", c.name, got, want[c.name])
		}
	}
}
