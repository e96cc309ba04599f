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
	"repro/internal/power"
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
// unnoticed, and on the two dies the provision benchmark creates, at the
// daemon's load coupling: t1 at 60×56 (the Gram side) and manycore-256c at
// 32×32 (the covariance side). The small dies' digests were taken from the
// element-wise kernels the contiguous ones replaced, the provision dies'
// from the scalar training kernels and serial tie-break sums that the
// blocked ones replaced. They are kept per GOARCH: math.Hypot is x87
// assembly on 386 and SSE2 assembly on amd64, so the two may round
// differently (on these dies they happen to agree).
func TestCreatePathDigestsPinned(t *testing.T) {
	type digests struct{ psi, importance, sensors string }
	want := map[string]map[string]digests{
		"amd64": {
			"gram":               {"42ccdc09aedddc575800dd1e18971f08c9374813ecc7c9ada7e21f3f1f8ab841", "d7c48b75b834ff2b891e001c4da9b7fafcd04da9600e4cb475a66e6e523dc9b8", "13526b2d40abddfa2386c86e66a9c395b300acd2f4fea6e326101477aef664e2"},
			"covariance":         {"89a4fab15f6b5b7bffe165462faa25a8100478e8ef5a19a224a948a91fb89648", "e9f8fee5928768f11a11c6e799d33a6bc6e60a29655dd4829deb7a9f2c7a5ecd", "2af2bd43f481102a1cf25ce0ad215e194adab51b1ea38a0e5596b777d07ae217"},
			"provision-t1":       {"10590ead98b7e5549ac8757ef4a2b17be1d835c2e3bb6c3387b7c53b2510a549", "8a0975948fd14f699be94d33eb237fbcb17b11ec22af93253fc29df935e1e63d", "b19815b2bce18e0bf0cfb2fdd6899b60149afd516e173afdc75e76914e20cb77"},
			"provision-manycore": {"2a1fc9f5ba5eae1c4538e04738d327d352bc9e8b8dfd92a9aee1863eec706733", "ad6d1535abc93aeb83d12c89dd51b834fb1bcff02c5c951a51c0d24118a3c796", "84b18c9d667a90c0b79d5a3eb2d942a7ae00c5ee7217f46bc63a5b4602a6dd45"},
		},
		"386": {
			"gram":               {"42ccdc09aedddc575800dd1e18971f08c9374813ecc7c9ada7e21f3f1f8ab841", "d7c48b75b834ff2b891e001c4da9b7fafcd04da9600e4cb475a66e6e523dc9b8", "13526b2d40abddfa2386c86e66a9c395b300acd2f4fea6e326101477aef664e2"},
			"covariance":         {"89a4fab15f6b5b7bffe165462faa25a8100478e8ef5a19a224a948a91fb89648", "e9f8fee5928768f11a11c6e799d33a6bc6e60a29655dd4829deb7a9f2c7a5ecd", "2af2bd43f481102a1cf25ce0ad215e194adab51b1ea38a0e5596b777d07ae217"},
			"provision-t1":       {"10590ead98b7e5549ac8757ef4a2b17be1d835c2e3bb6c3387b7c53b2510a549", "8a0975948fd14f699be94d33eb237fbcb17b11ec22af93253fc29df935e1e63d", "b19815b2bce18e0bf0cfb2fdd6899b60149afd516e173afdc75e76914e20cb77"},
			"provision-manycore": {"2a1fc9f5ba5eae1c4538e04738d327d352bc9e8b8dfd92a9aee1863eec706733", "ad6d1535abc93aeb83d12c89dd51b834fb1bcff02c5c951a51c0d24118a3c796", "84b18c9d667a90c0b79d5a3eb2d942a7ae00c5ee7217f46bc63a5b4602a6dd45"},
		},
	}[runtime.GOARCH]
	if want == nil {
		t.Skipf("no digests pinned for GOARCH=%s", runtime.GOARCH)
	}
	cases := []struct {
		name         string
		floorplan    string
		grid         floorplan.Grid
		t            int
		kmax, k, m   int
		loadCoupling float64 // 0: the dataset default
		method       basis.PCAMethod
	}{
		{"gram", "t1", floorplan.Grid{W: 16, H: 14}, 80, 8, 6, 10, 0, basis.PCAGram},
		{"covariance", "t1", floorplan.Grid{W: 12, H: 10}, 150, 8, 6, 10, 0, basis.PCACovariance},
		{"provision-t1", "t1", floorplan.Grid{W: 60, H: 56}, 192, 24, 16, 24, 0.75, basis.PCAGram},
		{"provision-manycore", "manycore-256c", floorplan.Grid{W: 32, H: 32}, 384, 16, 12, 24, 0.75, basis.PCACovariance},
	}
	for _, c := range cases {
		fp, err := floorplan.Named(c.floorplan)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dataset.GenConfig{Grid: c.grid, Snapshots: c.t, Seed: 4}
		if c.loadCoupling > 0 {
			cfg.Power = power.ConfigFor(fp, c.loadCoupling)
		}
		ds, err := dataset.Generate(fp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mdl, err := Train(ds, TrainOptions{KMax: c.kmax, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if mdl.Basis.Method != c.method {
			t.Fatalf("%s: trained on the %v side", c.name, mdl.Basis.Method)
		}
		sensors, err := mdl.PlaceSensors(c.m, PlaceOptions{K: c.k})
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
