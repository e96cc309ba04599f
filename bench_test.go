// Benchmarks regenerating every figure of the paper's evaluation section
// (one benchmark per figure/table row, per DESIGN.md's experiment index) at
// the reduced quick scale, plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the run-time path.
//
// Full-scale numbers come from `go run ./cmd/experiments`; these benches
// exist so `go test -bench=.` exercises every experiment end to end and
// tracks their cost over time.
package eigenmaps_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	eigenmaps "repro"
	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/mat"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/recon"
	"repro/internal/thermal"
	"repro/internal/track"
	"repro/internal/workload"
)

// benchEnv is shared across figure benches (building it is itself measured
// by BenchmarkEnvSetup).
var (
	benchOnce sync.Once
	benchVal  *experiments.Env
	benchErr  error
)

func benchEnvGet(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchVal, benchErr = experiments.NewEnv(experiments.QuickConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// BenchmarkEnvSetup measures the full design-time pipeline: thermal
// simulation of the ensemble plus training both bases.
func BenchmarkEnvSetup(b *testing.B) {
	cfg := experiments.QuickConfig()
	cfg.Snapshots = 120 // keep per-iteration cost sane
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnv(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2EigenDecay regenerates Fig. 2 (EigenMaps + eigenvalue decay).
func BenchmarkFig2EigenDecay(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig2(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aApproximation regenerates Fig. 3(a) (approximation error vs K).
func BenchmarkFig3aApproximation(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig3a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3bReconstruction regenerates Fig. 3(b) (error vs sensors).
func BenchmarkFig3bReconstruction(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig3b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3cNoise regenerates Fig. 3(c) (error vs SNR at 16 sensors).
func BenchmarkFig3cNoise(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig3c(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Visual regenerates Fig. 4 (visual comparison at 16 sensors).
func BenchmarkFig4Visual(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Allocation regenerates Fig. 5 (method × allocator cross).
func BenchmarkFig5Allocation(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Constrained regenerates Fig. 6 (masked allocation).
func BenchmarkFig6Constrained(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline regenerates the Sec. 1 headline rows (tab-headline).
func BenchmarkHeadline(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Headline(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md Sec. 5) ---

// BenchmarkAblationSubspaceIteration compares the matrix-free subspace
// iteration used at full scale against the exact O(T³) method of snapshots.
func BenchmarkAblationSubspaceIteration(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.TrainPCA(env.DS, 12, basis.PCAConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSnapshotMethod is the reference arm of the PCA ablation.
func BenchmarkAblationSnapshotMethod(b *testing.B) {
	env := benchEnvGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.TrainPCA(env.DS, 12, basis.PCAConfig{Method: basis.PCAGram}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyIncremental measures Algorithm 1 with the default
// incremental row-max maintenance and windowed rank checks.
func BenchmarkAblationGreedyIncremental(b *testing.B) {
	env := benchEnvGet(b)
	psi, err := env.PCA.Basis.PsiK(12)
	if err != nil {
		b.Fatal(err)
	}
	in := place.Input{Psi: psi, Grid: env.DS.Grid, M: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&place.Greedy{}).Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyEveryStepRankCheck is the naive-schedule arm:
// a rank check after every removal.
func BenchmarkAblationGreedyEveryStepRankCheck(b *testing.B) {
	env := benchEnvGet(b)
	psi, err := env.PCA.Basis.PsiK(12)
	if err != nil {
		b.Fatal(err)
	}
	in := place.Input{Psi: psi, Grid: env.DS.Grid, M: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&place.Greedy{CheckEveryStep: true}).Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDCTSelection compares the two k-LSE frequency-selection
// policies (energy-ranked is the default baseline; zig-zag the classical one).
func BenchmarkAblationDCTSelection(b *testing.B) {
	env := benchEnvGet(b)
	for _, sel := range []basis.DCTSelection{basis.DCTZigZag, basis.DCTEnergyRanked} {
		b.Run(sel.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := basis.TrainDCT(env.DS, 16, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKvsM quantifies the ε (approximation) vs ε_r
// (conditioning) trade-off: at fixed M, sweep K and report the evaluated MSE
// per dimension as custom metrics.
func BenchmarkAblationKvsM(b *testing.B) {
	env := benchEnvGet(b)
	const m = 16
	sensors, err := env.PCA.PlaceSensors(m, core.PlaceOptions{K: m, Allocator: &place.Greedy{}})
	if err != nil {
		b.Fatal(err)
	}
	if len(sensors) > m {
		sensors = sensors[:m]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{4, 8, 12, 16} {
			r, err := recon.New(env.PCA.Basis, k, sensors)
			if err != nil {
				continue
			}
			res, err := recon.Evaluate(r, env.DS, recon.EvalConfig{SNRdB: 20, NoisePresent: true, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.MSE, "mse-K"+itoa(k))
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Run-time path micro-benchmarks ---

// BenchmarkReconstructOneMap measures the per-step cost a dynamic thermal
// manager pays: one least-squares solve plus map synthesis.
func BenchmarkReconstructOneMap(b *testing.B) {
	env := benchEnvGet(b)
	const m = 16
	sensors, err := env.PCA.PlaceSensors(m, core.PlaceOptions{K: m, Allocator: &place.Greedy{}})
	if err != nil {
		b.Fatal(err)
	}
	mon, err := env.PCA.NewMonitor(8, sensors[:m])
	if err != nil {
		b.Fatal(err)
	}
	readings := mon.Sample(env.DS.Map(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Estimate(readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateArms compares the served path per snapshot — the
// precomputed-operator GEMV — against the two-stage QR reference it
// replaced (least-squares coefficients, then the basis lift), at the
// daemon's default K=8/M=8 operating point and at the engine fixture's
// K=8/M=16 point.
func BenchmarkEstimateArms(b *testing.B) {
	env := benchEnvGet(b)
	for _, m := range []int{8, 16} {
		const k = 8
		sensors, err := env.PCA.PlaceSensors(m, core.PlaceOptions{K: k, Allocator: &place.Greedy{}})
		if err != nil {
			b.Fatal(err)
		}
		mon, err := env.PCA.NewMonitor(k, sensors)
		if err != nil {
			b.Fatal(err)
		}
		rec := mon.Reconstructor()
		readings := mon.Sample(env.DS.Map(0))
		dst := make([]float64, mon.N())
		b.Run("m="+itoa(m)+"/arm=operator", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mon.EstimateInto(dst, readings); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("m="+itoa(m)+"/arm=qr", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alpha, err := rec.Coefficients(readings)
				if err != nil {
					b.Fatal(err)
				}
				rec.Basis().SynthesizeInto(dst, alpha)
			}
		})
	}
}

// --- Concurrent batched monitoring engine ---

// batchBenchSize is the snapshot count per batch in the engine benches —
// large enough that worker fan-out amortizes, small enough to iterate.
const batchBenchSize = 256

// engineFixture builds a shared monitor plus a reusable batch of readings
// and preallocated outputs.
func engineFixture(b *testing.B) (*core.Monitor, [][]float64, [][]float64) {
	b.Helper()
	env := benchEnvGet(b)
	const m = 16
	sensors, err := env.PCA.PlaceSensors(m, core.PlaceOptions{K: m, Allocator: &place.Greedy{}})
	if err != nil {
		b.Fatal(err)
	}
	mon, err := env.PCA.NewMonitor(8, sensors[:m])
	if err != nil {
		b.Fatal(err)
	}
	readings := make([][]float64, batchBenchSize)
	dst := make([][]float64, batchBenchSize)
	for i := range readings {
		readings[i] = mon.Sample(env.DS.Map(i % env.DS.T()))
		dst[i] = make([]float64, mon.N())
	}
	return mon, readings, dst
}

// BenchmarkEstimateSequential is the baseline the tentpole is measured
// against: one goroutine reconstructing a batch snapshot by snapshot (the
// pre-engine Estimate loop, minus its per-call allocations).
func BenchmarkEstimateSequential(b *testing.B) {
	mon, readings, dst := engineFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, xS := range readings {
			if err := mon.EstimateInto(dst[j], xS); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerSnapshot(b)
}

// BenchmarkEstimateBatchParallel is the engine path: the same batch fanned
// out over the worker pool with pooled scratch. Throughput must be ≥2× the
// sequential baseline at GOMAXPROCS ≥ 4 with zero steady-state allocations
// per snapshot (the few allocs/op here are the per-batch goroutine fan-out,
// amortized over batchBenchSize snapshots; per-snapshot zero-alloc is pinned
// by TestReconstructIntoZeroAlloc).
func BenchmarkEstimateBatchParallel(b *testing.B) {
	mon, readings, dst := engineFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mon.EstimateBatchInto(dst, readings, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportPerSnapshot(b)
}

// BenchmarkEstimatePerSnapshotParallel drives the zero-alloc single-snapshot
// path from GOMAXPROCS goroutines sharing one monitor — the daemon's
// steady-state request mix. allocs/op must be 0.
func BenchmarkEstimatePerSnapshotParallel(b *testing.B) {
	mon, readings, _ := engineFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]float64, mon.N())
		j := 0
		for pb.Next() {
			if err := mon.EstimateInto(dst, readings[j%len(readings)]); err != nil {
				b.Fatal(err)
			}
			j++
		}
	})
}

// BenchmarkTrackerStepBatch measures the temporal (Kalman) batch path.
func BenchmarkTrackerStepBatch(b *testing.B) {
	env := benchEnvGet(b)
	const m = 16
	sensors, err := env.PCA.PlaceSensors(m, core.PlaceOptions{K: m, Allocator: &place.Greedy{}})
	if err != nil {
		b.Fatal(err)
	}
	kf, err := track.NewKalman(env.PCA.Basis, 8, sensors[:m], track.Config{})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = kf.Sample(env.DS.Map(i % env.DS.T()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kf.StepBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPerSnapshot converts the whole-batch ns/op into a per-snapshot
// figure so the sequential and batch benches compare directly.
func reportPerSnapshot(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchBenchSize), "ns/snapshot")
	b.ReportMetric(float64(b.N*batchBenchSize)/b.Elapsed().Seconds(), "snapshots/s")
}

// --- Design-time training & placement engine ---

// trainBenchEnv is the shared fixture for the training/placement benches: a
// T1 ensemble in the N ≈ 4·T regime (N = 800 cells, T = 200 snapshots)
// where the snapshot-Gram dual is the auto-selected side, plus the trained
// model for the placement benches.
var (
	trainBenchOnce sync.Once
	trainBenchDS   *dataset.Dataset
	trainBenchMdl  *core.Model
	trainBenchErr  error
)

// trainBenchKMax matches the paper's K = 40 operating point, where the
// covariance iteration's block is at its widest.
const trainBenchKMax = 40

func trainBenchGet(b *testing.B) (*dataset.Dataset, *core.Model) {
	b.Helper()
	trainBenchOnce.Do(func() {
		trainBenchDS, trainBenchErr = dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
			Grid:      floorplan.Grid{W: 40, H: 20},
			Snapshots: 200,
			Seed:      12,
		})
		if trainBenchErr != nil {
			return
		}
		trainBenchMdl, trainBenchErr = core.Train(trainBenchDS, core.TrainOptions{KMax: trainBenchKMax, Seed: 12})
	})
	if trainBenchErr != nil {
		b.Fatal(trainBenchErr)
	}
	return trainBenchDS, trainBenchMdl
}

// provisionBenchDS returns the training ensemble of one of the two dies
// the provision benchmark creates, simulated as the daemon simulates it
// (load coupling 0.75): t1 at 60×56 with T 192, or manycore-256c at 32×32
// with T 384.
var provisionBenchDS = func() func(b *testing.B, name string) *dataset.Dataset {
	var mu sync.Mutex
	cache := map[string]*dataset.Dataset{}
	return func(b *testing.B, name string) *dataset.Dataset {
		b.Helper()
		mu.Lock()
		defer mu.Unlock()
		if ds := cache[name]; ds != nil {
			return ds
		}
		grid, snapshots := floorplan.Grid{W: 60, H: 56}, 192
		if name != "t1" {
			grid, snapshots = floorplan.Grid{W: 32, H: 32}, 384
		}
		fp, err := floorplan.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dataset.Generate(fp, dataset.GenConfig{
			Grid: grid, Snapshots: snapshots, Seed: 51, Power: power.ConfigFor(fp, 0.75),
		})
		if err != nil {
			b.Fatal(err)
		}
		cache[name] = ds
		return ds
	}
}()

// BenchmarkTrain compares the two sides of the PCA duality on the shared
// T1-sized ensemble (the tentpole criterion: gram ≥ 3× faster than
// covariance at N ≈ 2–4×T). The auto arm tracks what Train actually picks
// for this shape. The provision arms train the provision benchmark's two
// dies with the daemon's options: t1 at 60×56, T 192, KMax 24 (the Gram
// side) and manycore-256c at 32×32, T 384, KMax 16 (the covariance side).
func BenchmarkTrain(b *testing.B) {
	ds, _ := trainBenchGet(b)
	for _, arm := range []struct {
		name   string
		method basis.PCAMethod
	}{
		{"covariance", basis.PCACovariance},
		{"gram", basis.PCAGram},
		{"auto", basis.PCAAuto},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(ds, core.TrainOptions{KMax: trainBenchKMax, Seed: 12, Method: arm.method}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, arm := range []struct {
		name, floorplan string
		kmax            int
	}{
		{"provision-t1", "t1", 24},
		{"provision-manycore", "manycore-256c", 16},
	} {
		b.Run(arm.name, func(b *testing.B) {
			ds := provisionBenchDS(b, arm.floorplan)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(ds, core.TrainOptions{KMax: arm.kmax, Seed: 51}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlaceGreedy measures Algorithm 1's lazy max-heap engine on the
// shared 800-cell basis (heap), and at the paper's scale on a seeded
// random orthonormal 3360×16 basis with M 24 (paper), both with their
// allocated bytes: Allocate keeps no R×R correlation matrix, which was
// 45 MB at 3,360 cells. (The linear-rescan reference the heap replaced
// lives in the place package's tests, which pin identical allocations.)
func BenchmarkPlaceGreedy(b *testing.B) {
	ds, mdl := trainBenchGet(b)
	psi, err := mdl.Basis.PsiK(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		in   place.Input
	}{
		{"heap", place.Input{Psi: psi, Grid: ds.Grid, M: 16}},
		{"paper", place.Input{Psi: mat.RandomOrthonormal(3360, 16, rand.New(rand.NewSource(8))), M: 24}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&place.Greedy{}).Allocate(arm.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyPlacementFullScale measures Algorithm 1 on the paper's
// 3360-cell grid (the design-time cost that motivated the incremental
// row-max maintenance).
func BenchmarkGreedyPlacementFullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale placement bench skipped in -short")
	}
	ds, err := dataset.Generate(floorplan.UltraSparcT1(), dataset.GenConfig{
		Grid:      floorplan.Grid{W: 60, H: 56},
		Snapshots: 200,
		Seed:      3,
	})
	if err != nil {
		b.Fatal(err)
	}
	mdl, err := core.Train(ds, core.TrainOptions{KMax: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	psi, err := mdl.Basis.PsiK(16)
	if err != nil {
		b.Fatal(err)
	}
	in := place.Input{Psi: psi, Grid: ds.Grid, M: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&place.Greedy{}).Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalStep measures a whole small simulation at the paper's
// grid size: each iteration runs SimulateT1 for 8 snapshots at 60×56, that
// is the model build, the four segments' steady states and eight
// backward-Euler steps. The model's two banded factors come from the
// process's factor cache, filled by the warm-up call, as every create
// after a grid's first gets them; factoring alone is BenchmarkBandFactor,
// one step alone BenchmarkTransientStep. (The name predates that reading;
// the committed baseline gates it.)
func BenchmarkThermalStep(b *testing.B) {
	if _, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: eigenmaps.Grid{W: 60, H: 56}, Snapshots: 4, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
			Grid: eigenmaps.Grid{W: 60, H: 56}, Snapshots: 8, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEigen tracks the dense eigensolver on a Rayleigh-Ritz-sized
// problem (the inner kernel of subspace iteration).
func BenchmarkSymEigen(b *testing.B) {
	a := mat.RandomSPD(64, randSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEigenGram tracks the dense eigensolver at snapshot-Gram sizes:
// T = 192 is the t1 provisioning ensemble, 384 twice that.
func BenchmarkSymEigenGram(b *testing.B) {
	for _, n := range []int{192, 384} {
		a := mat.RandomSPD(n, randSource(11))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mat.SymEigen(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrthonormalize tracks the Householder QR and explicit Q that
// every subspace-iteration sweep runs: 1024×32 is the manycore-256c block,
// 3360×40 a paper-scale die's.
func BenchmarkOrthonormalize(b *testing.B) {
	for _, shape := range [][2]int{{1024, 32}, {3360, 40}} {
		a := mat.RandomMatrix(shape[0], shape[1], randSource(12))
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.Orthonormalize(a)
			}
		})
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkTransientStep measures one backward-Euler step of the RC model
// at the paper's full 60×56 grid under a realistic mixed-workload power
// trace: two banded triangular solves against the model's factor-once
// Cholesky. (The sub-benchmark keeps the name it had when a CG arm ran
// beside it, so the committed baseline still gates it.)
func BenchmarkTransientStep(b *testing.B) {
	b.Run("solver=direct", func(b *testing.B) {
		fp := floorplan.UltraSparcT1()
		g := floorplan.Grid{W: 60, H: 56}
		raster := fp.Rasterize(g)
		gen := power.NewGenerator(fp, power.Config{
			Scenario: power.ScenarioMixed, Seed: 7, LoadCoupling: 0.75,
		})
		maps := make([][]float64, 64)
		for i := range maps {
			maps[i] = power.SpreadToCells(raster, gen.Step())
		}
		m := thermal.NewModel(g, thermal.Config{})
		dst := make([]float64, g.N())
		tr := m.NewTransient()
		if err := tr.SetSteadyState(maps[0]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.StepInto(dst, maps[i%len(maps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenerate measures full design-time ensemble generation at the
// quick-config scale. Generation fans out over independent scenario
// segments on every CPU; the sub-benchmark keeps the name it had beside
// the retired sequential arm, so the committed baseline still gates it.
func BenchmarkGenerate(b *testing.B) {
	b.Run("workers=all", func(b *testing.B) {
		cfg := dataset.GenConfig{
			Grid:      floorplan.Grid{W: 24, H: 22},
			Snapshots: 240,
			Seed:      5,
		}
		fp := floorplan.UltraSparcT1()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.Generate(fp, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkloadStep measures one step of the spec-driven workload
// engine: the preset path (plain Markov dynamics), a feature-heavy
// declarative spec (MMPP arrivals + DVFS governor + duty envelopes +
// migration chain), and the preset dynamics scaled to a generated 256-core
// die (per-step cost is linear in the block count).
func BenchmarkWorkloadStep(b *testing.B) {
	heavy := &workload.Spec{
		Name: "heavy",
		Phases: []workload.Phase{
			{Steps: 200, Rates: workload.Rates{IdleToBusy: 0.2, BusyToIdle: 0.08, BusyToFPU: 0.05, FPUToBusy: 0.15}},
			{Steps: 100, Rates: workload.Rates{IdleToBusy: 0.35, BusyToIdle: 0.03, BusyToFPU: 0.1, FPUToBusy: 0.05}},
		},
		Arrival:   &workload.Arrival{BurstFactor: 4, PEnter: 0.05, PExit: 0.15},
		DVFS:      &workload.DVFS{Levels: []float64{0.5, 0.75, 1}, UpAt: 0.8, DownAt: 0.4, Hold: 25},
		Migration: workload.Migration{Period: 20, Rate: 0.1},
		Envelopes: []workload.Envelope{
			{Kind: "core", Period: 400, Min: 0.3, Max: 1},
			{Kind: "fpu", Period: 300, Min: 0.5, Max: 1, Shape: "saw"},
		},
	}
	manycore, err := floorplan.Manycore(256, 64, floorplan.Grid{W: 16, H: 16})
	if err != nil {
		b.Fatal(err)
	}
	presetSpec, err := workload.Parse("web")
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		fp   *floorplan.Floorplan
		spec *workload.Spec
		cfg  power.Config
	}{
		{"spec=web/t1", floorplan.UltraSparcT1(), presetSpec, power.Config{Seed: 7}},
		{"spec=heavy/t1", floorplan.UltraSparcT1(), heavy, power.Config{Seed: 7}},
		{"spec=web/manycore256", manycore, presetSpec, power.ManycoreConfig(256, 64)},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			cfg := arm.cfg
			cfg.Seed = 7
			gen, err := power.NewSpecGenerator(arm.fp, arm.spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Step()
			}
		})
	}
}

// --- Monitor persistence (the durable serving layer) ---

// monitorStoreFixture trains a daemon-sized monitor (grid 16×14, KMax 12,
// K=8/M=16 — the emapsd defaults) through the public pipeline.
func monitorStoreFixture(b *testing.B) *eigenmaps.Monitor {
	b.Helper()
	ens, err := eigenmaps.SimulateT1(eigenmaps.SimOptions{
		Grid: eigenmaps.Grid{W: 16, H: 14}, Snapshots: 150, Seed: 9, LoadCoupling: 0.75,
	})
	if err != nil {
		b.Fatal(err)
	}
	model, err := eigenmaps.Train(ens, eigenmaps.TrainOptions{KMax: 12, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sensors, err := model.PlaceSensors(16, eigenmaps.PlaceOptions{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	mon, err := model.NewMonitor(8, sensors)
	if err != nil {
		b.Fatal(err)
	}
	return mon
}

// BenchmarkMonitorSave measures serializing a trained monitor (basis +
// placement + cached QR) into the versioned store format.
func BenchmarkMonitorSave(b *testing.B) {
	mon := monitorStoreFixture(b)
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := mon.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorLoad measures rebuilding a serving-ready monitor from its
// store bytes — the warm-start path. The whole point of the store is that
// this is orders of magnitude cheaper than the simulate+train+place
// pipeline the fixture ran once (BenchmarkMonitorTrainPipeline is that
// pipeline at the same scale; DESIGN.md states the measured ratio).
func BenchmarkMonitorLoad(b *testing.B) {
	mon := monitorStoreFixture(b)
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigenmaps.LoadMonitor(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorTrainPipeline is the retraining arm BenchmarkMonitorLoad
// is measured against: the full simulate → train → place → factor pipeline
// at the identical configuration.
func BenchmarkMonitorTrainPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = monitorStoreFixture(b)
	}
}

// BenchmarkGenerateManycore measures end-to-end ensemble generation on the
// generated 256-core die (the robustness harness's reference floorplan) at
// a 32×32 grid — the scaling arm next to BenchmarkGenerate's T1 runs.
func BenchmarkGenerateManycore(b *testing.B) {
	fp, err := floorplan.Manycore(256, 64, floorplan.Grid{W: 16, H: 16})
	if err != nil {
		b.Fatal(err)
	}
	specs, err := workload.ParseList("bursty,dvfs")
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.GenConfig{
		Grid:      floorplan.Grid{W: 32, H: 32},
		Snapshots: 60,
		Specs:     specs,
		Seed:      5,
		Power:     power.ManycoreConfig(256, 64),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(fp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
