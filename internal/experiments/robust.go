package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/recon"
	"repro/internal/workload"
)

// RobustConfig parameterizes the cross-scenario robustness harness: for
// every workload family it trains an EigenMaps model (basis + greedy
// sensor layout) on that family's ensemble, then evaluates reconstruction
// error on every other family's ensemble — quantifying how well a basis
// trained on one workload generalizes to traffic it never saw, the central
// deployment question for EigenMaps-style monitoring. The paper trains and
// evaluates on one trace mix; this experiment surface is new.
type RobustConfig struct {
	// Floorplan is the die every family is simulated on. Defaults to the
	// 256-core generated many-core plan (floorplan.Manycore(256, 64,
	// 16×16)) — scenario diversity matters most at scale.
	Floorplan *floorplan.Floorplan

	Grid      floorplan.Grid // default 32×32
	Snapshots int            // per family ensemble size, default 120
	KMax      int            // default 16
	K         int            // monitor subspace dimension, default 8
	M         int            // sensor budget, default 12
	Seed      int64

	// LoadCoupling is the default core coupling for families that declare
	// no load_coupling of their own. Default power.DefaultLoadCoupling —
	// the regime every other experiment in the suite runs in (see
	// DESIGN.md, trace substitution). The hardware budgets are
	// power.ConfigFor's for the floorplan (many-core scaling included).
	LoadCoupling float64

	// Specs are the scenario families. Default: the six-family catalog
	// cross-section web, compute, idle, bursty, wave, dvfs.
	Specs []*workload.Spec

	// Adapt enables the adaptation arm: for every train×eval pair, the
	// trained basis absorbs an adaptation stream of the *eval* family
	// (reconstruction-grade in-field captures, generated at a third seed
	// disjoint from both the training and evaluation ensembles) through
	// basis.NewIncrementalFrom, and the adapted monitor — same sensor
	// layout, operator re-folded from the adapted basis — is re-evaluated.
	// This measures how much of the generalization gap online adaptation
	// recovers without moving a single sensor.
	Adapt bool
	// AdaptSnapshots sizes the adaptation stream (default Snapshots).
	AdaptSnapshots int
	// AdaptSeedWeight is how many snapshots the design-time basis counts as
	// when seeding the incremental trainer (default max(2, Snapshots/8)):
	// small enough that the absorbed stream dominates the blend, large
	// enough that the prior anchors the subspace while the buffer fills.
	AdaptSeedWeight int
}

func (c *RobustConfig) defaults() error {
	if c.Floorplan == nil {
		fp, err := floorplan.Manycore(256, 64, floorplan.Grid{W: 16, H: 16})
		if err != nil {
			return err
		}
		c.Floorplan = fp
	}
	if c.LoadCoupling == 0 {
		c.LoadCoupling = power.DefaultLoadCoupling
	}
	if c.Grid.W == 0 || c.Grid.H == 0 {
		c.Grid = floorplan.Grid{W: 32, H: 32}
	}
	if c.Snapshots == 0 {
		c.Snapshots = 120
	}
	if c.KMax == 0 {
		c.KMax = 16
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.M == 0 {
		c.M = 12
	}
	if len(c.Specs) == 0 {
		for _, name := range []string{"web", "compute", "idle", "bursty", "wave", "dvfs"} {
			s, err := workload.Parse(name)
			if err != nil {
				return err
			}
			c.Specs = append(c.Specs, s)
		}
	}
	if c.AdaptSnapshots == 0 {
		c.AdaptSnapshots = c.Snapshots
	}
	if c.AdaptSeedWeight == 0 {
		c.AdaptSeedWeight = c.Snapshots / 8
		if c.AdaptSeedWeight < 2 {
			c.AdaptSeedWeight = 2
		}
	}
	return nil
}

// RobustResult is the train-family × eval-family reconstruction-error
// matrix. MSE[i][j] is the per-cell MSE (°C²) of the model trained on
// family i evaluated on family j's ensemble; the diagonal is the matched
// train/eval baseline.
type RobustResult struct {
	Names     []string
	MSE       [][]float64
	Cond      []float64 // κ(Ψ̃_K) of each trained layout
	Floorplan string
	K, M      int

	// AdaptedMSE[i][j] is the per-cell MSE on family j after the model
	// trained on family i absorbed family j's adaptation stream (same
	// sensors, re-folded operator). The diagonal absorbs more of the same
	// family. Nil unless the adapt arm ran.
	AdaptedMSE [][]float64
}

// Robust runs the harness: one training ensemble and one disjoint-seed
// evaluation ensemble per family, a model + greedy layout per training
// family, and a full cross-evaluation.
func Robust(cfg RobustConfig) (*RobustResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := len(cfg.Specs)
	res := &RobustResult{
		Names:     make([]string, n),
		MSE:       make([][]float64, n),
		Cond:      make([]float64, n),
		Floorplan: cfg.Floorplan.Name,
		K:         cfg.K, M: cfg.M,
	}
	seen := make(map[string]bool, n)
	for i, s := range cfg.Specs {
		// Label rows by spec name (unique); Family is grouping metadata and
		// may legitimately repeat across distinct specs.
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("spec[%d]", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("robust: duplicate scenario spec %q", name)
		}
		seen[name] = true
		res.Names[i] = name
	}

	pcfg := power.ConfigFor(cfg.Floorplan, cfg.LoadCoupling)
	gen := func(si int, seedSalt int64) (*dataset.Dataset, error) {
		return dataset.Generate(cfg.Floorplan, dataset.GenConfig{
			Grid:      cfg.Grid,
			Snapshots: cfg.Snapshots,
			Specs:     []*workload.Spec{cfg.Specs[si]},
			Seed:      mixSeed(cfg.Seed, seedSalt+int64(si)),
			Power:     pcfg,
		})
	}

	// Evaluation ensembles: one per family, generated at a seed disjoint
	// from every training seed so the diagonal still measures
	// generalization to unseen traces of the same family.
	evals := make([]*dataset.Dataset, n)
	for j := 0; j < n; j++ {
		ds, err := gen(j, 100_000)
		if err != nil {
			return nil, fmt.Errorf("robust: eval ensemble %s: %w", res.Names[j], err)
		}
		evals[j] = ds
	}

	// Adaptation streams: a third disjoint seed per family, standing in for
	// the reconstruction-grade maps a deployed monitor captures in the
	// field. Disjoint from the eval seed so the adapted model is still
	// scored on traces it never absorbed.
	var adapts []*dataset.Dataset
	if cfg.Adapt {
		adapts = make([]*dataset.Dataset, n)
		for j := 0; j < n; j++ {
			ds, err := dataset.Generate(cfg.Floorplan, dataset.GenConfig{
				Grid:      cfg.Grid,
				Snapshots: cfg.AdaptSnapshots,
				Specs:     []*workload.Spec{cfg.Specs[j]},
				Seed:      mixSeed(cfg.Seed, 200_000+int64(j)),
				Power:     pcfg,
			})
			if err != nil {
				return nil, fmt.Errorf("robust: adapt stream %s: %w", res.Names[j], err)
			}
			adapts[j] = ds
		}
		res.AdaptedMSE = make([][]float64, n)
	}

	for i := 0; i < n; i++ {
		train, err := gen(i, 0)
		if err != nil {
			return nil, fmt.Errorf("robust: train ensemble %s: %w", res.Names[i], err)
		}
		model, err := core.Train(train, core.TrainOptions{KMax: cfg.KMax, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("robust: train %s: %w", res.Names[i], err)
		}
		sensors, err := model.PlaceSensors(cfg.M, core.PlaceOptions{K: cfg.K})
		if err != nil {
			return nil, fmt.Errorf("robust: place %s: %w", res.Names[i], err)
		}
		if len(sensors) > cfg.M {
			sensors = sensors[:cfg.M]
		}
		mon, err := model.NewMonitor(cfg.K, sensors)
		if err != nil {
			return nil, fmt.Errorf("robust: monitor %s: %w", res.Names[i], err)
		}
		if res.Cond[i], err = mon.Cond(); err != nil {
			return nil, fmt.Errorf("robust: cond %s: %w", res.Names[i], err)
		}
		res.MSE[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			r, err := recon.Evaluate(mon.Reconstructor(), evals[j], recon.EvalConfig{})
			if err != nil {
				return nil, fmt.Errorf("robust: eval %s on %s: %w", res.Names[i], res.Names[j], err)
			}
			res.MSE[i][j] = r.MSE
		}
		if cfg.Adapt {
			res.AdaptedMSE[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				amse, err := adaptedMSE(cfg, model, sensors, adapts[j], evals[j])
				if err != nil {
					return nil, fmt.Errorf("robust: adapt %s to %s: %w", res.Names[i], res.Names[j], err)
				}
				res.AdaptedMSE[i][j] = amse
			}
		}
	}
	return res, nil
}

// adaptedMSE plays one adaptation episode: seed an incremental trainer from
// the trained model (the design-time basis stands in for AdaptSeedWeight
// snapshots), absorb the adaptation stream, snapshot the adapted basis,
// re-fold the operator over the *same* sensor layout and score it on the
// held-out evaluation ensemble.
func adaptedMSE(cfg RobustConfig, model *core.Model, sensors []int, adapt, eval *dataset.Dataset) (float64, error) {
	inc, err := basis.NewIncrementalFrom(model.Basis, model.Energy, cfg.AdaptSeedWeight, 0)
	if err != nil {
		return 0, err
	}
	for t := 0; t < adapt.T(); t++ {
		if err := inc.Add(adapt.Map(t)); err != nil {
			return 0, err
		}
	}
	adapted, err := inc.Snapshot()
	if err != nil {
		return 0, err
	}
	am := &core.Model{Basis: adapted, Energy: inc.Energy(), Grid: adapted.Grid}
	mon, err := am.NewMonitor(cfg.K, sensors)
	if err != nil {
		return 0, err
	}
	r, err := recon.Evaluate(mon.Reconstructor(), eval, recon.EvalConfig{})
	if err != nil {
		return 0, err
	}
	return r.MSE, nil
}

// GeneralizationGap returns the geometric mean, over train families, of
// (worst off-diagonal MSE) / (diagonal MSE): how much reconstruction error
// inflates when the deployed workload family is the least favorable one
// the basis never trained on. 1 means perfectly robust.
func (r *RobustResult) GeneralizationGap() float64 {
	if len(r.Names) < 2 {
		return 1
	}
	logSum := 0.0
	for i := range r.Names {
		worst := 0.0
		for j := range r.Names {
			if j != i && r.MSE[i][j] > worst {
				worst = r.MSE[i][j]
			}
		}
		if r.MSE[i][i] <= 0 || worst <= 0 {
			return 0
		}
		logSum += math.Log(worst / r.MSE[i][i])
	}
	return math.Exp(logSum / float64(len(r.Names)))
}

// AdaptedGeneralizationGap is GeneralizationGap after the adaptation arm:
// the geometric mean, over train families, of (worst off-diagonal
// AdaptedMSE) / (the matched train/eval diagonal of the *un-adapted*
// matrix). The baseline stays the design-time matched monitor, so the two
// gaps are directly comparable: their ratio is exactly how much of the
// worst-case inflation adaptation recovered. Returns 0 when the adapt arm
// did not run.
func (r *RobustResult) AdaptedGeneralizationGap() float64 {
	if r.AdaptedMSE == nil {
		return 0
	}
	if len(r.Names) < 2 {
		return 1
	}
	logSum := 0.0
	for i := range r.Names {
		worst := 0.0
		for j := range r.Names {
			if j != i && r.AdaptedMSE[i][j] > worst {
				worst = r.AdaptedMSE[i][j]
			}
		}
		if r.MSE[i][i] <= 0 || worst <= 0 {
			return 0
		}
		logSum += math.Log(worst / r.MSE[i][i])
	}
	return math.Exp(logSum / float64(len(r.Names)))
}

// GapCut returns GeneralizationGap / AdaptedGeneralizationGap — the factor
// by which online adaptation shrank the worst-case generalization gap.
// Returns 0 when the adapt arm did not run or either gap degenerates.
func (r *RobustResult) GapCut() float64 {
	adapted := r.AdaptedGeneralizationGap()
	if adapted <= 0 {
		return 0
	}
	return r.GeneralizationGap() / adapted
}

// MostRobustFamily returns the training family with the smallest worst-case
// MSE across eval families — the trace mix to train on when the deployment
// workload is unknown.
func (r *RobustResult) MostRobustFamily() string {
	best, bestWorst := "", math.Inf(1)
	for i, name := range r.Names {
		worst := 0.0
		for j := range r.Names {
			if r.MSE[i][j] > worst {
				worst = r.MSE[i][j]
			}
		}
		if worst < bestWorst {
			best, bestWorst = name, worst
		}
	}
	return best
}

// String prints the error matrix (rows = training family, columns = eval
// family) plus the robustness summary.
func (r *RobustResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Cross-scenario robustness: reconstruction MSE [°C²] on %s (K=%d, M=%d) ==\n",
		r.Floorplan, r.K, r.M)
	fmt.Fprintf(&b, "%-10s", "train\\eval")
	for _, n := range r.Names {
		fmt.Fprintf(&b, " %12s", n)
	}
	fmt.Fprintf(&b, " %12s\n", "cond")
	for i, n := range r.Names {
		fmt.Fprintf(&b, "%-10s", n)
		for j := range r.Names {
			fmt.Fprintf(&b, " %12.4g", r.MSE[i][j])
		}
		fmt.Fprintf(&b, " %12.3g\n", r.Cond[i])
	}
	fmt.Fprintf(&b, "worst-case/matched MSE inflation (geomean over train families): %.3gx\n",
		r.GeneralizationGap())
	fmt.Fprintf(&b, "most robust training family: %s (smallest worst-case MSE)\n", r.MostRobustFamily())
	if r.AdaptedMSE != nil {
		fmt.Fprintf(&b, "\n-- after online adaptation (same sensors, re-folded operator) --\n")
		fmt.Fprintf(&b, "%-10s", "train\\eval")
		for _, n := range r.Names {
			fmt.Fprintf(&b, " %12s", n)
		}
		fmt.Fprintln(&b)
		for i, n := range r.Names {
			fmt.Fprintf(&b, "%-10s", n)
			for j := range r.Names {
				fmt.Fprintf(&b, " %12.4g", r.AdaptedMSE[i][j])
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "adapted worst-case inflation: %.3gx (gap cut %.3gx)\n",
			r.AdaptedGeneralizationGap(), r.GapCut())
	}
	return b.String()
}
