// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V): per-timestamp budget calibration (Figs. 7–10),
// utility sweeps over ε, α, δ and σ (Figs. 11–13), the runtime comparison
// against the naive baseline (Fig. 14) and the conservative-release
// threshold trade-off (Table III). Each runner accepts a scale
// configuration so the same code drives quick benchmarks and full
// paper-scale runs.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/geolife"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/world"
)

// Workload bundles a map, a mobility model and the true trajectories of
// the repeated runs.
type Workload struct {
	Grid  *grid.Grid
	Chain *markov.Chain
	Pi    mat.Vector
	Trajs [][]int
	Seed  int64
}

// SyntheticConfig describes the §V-A synthetic workload: a W×H grid with a
// Gaussian-kernel transition matrix of scale Sigma, and trajectories of
// length T sampled from the chain.
type SyntheticConfig struct {
	W, H  int
	Cell  float64
	Sigma float64
	T     int
	Runs  int
	Seed  int64
}

// Synthetic builds the workload.
func Synthetic(cfg SyntheticConfig) (*Workload, error) {
	g, err := grid.New(cfg.W, cfg.H, cfg.Cell)
	if err != nil {
		return nil, err
	}
	chain, err := markov.GaussianChain(g, cfg.Sigma)
	if err != nil {
		return nil, err
	}
	if cfg.T <= 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("experiments: T and Runs must be positive")
	}
	pi := markov.Uniform(g.States())
	rng := rand.New(rand.NewSource(cfg.Seed))
	trajs := make([][]int, cfg.Runs)
	for k := range trajs {
		trajs[k] = chain.SamplePath(rng, pi, cfg.T)
	}
	return &Workload{Grid: g, Chain: chain, Pi: pi, Trajs: trajs, Seed: cfg.Seed}, nil
}

// GeolifeConfig describes the Geolife-substitute workload: traces from the
// synthetic generator, a chain trained on them, and evaluation
// trajectories sliced from held-out days.
type GeolifeConfig struct {
	W, H   int
	CellKm float64
	Days   int
	T      int
	Runs   int
	Seed   int64
}

// Geolife builds the workload: generate, train, then slice evaluation
// trajectories from the generated days round-robin.
func Geolife(cfg GeolifeConfig) (*Workload, error) {
	g, err := grid.New(cfg.W, cfg.H, cfg.CellKm)
	if err != nil {
		return nil, err
	}
	if cfg.T <= 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("experiments: T and Runs must be positive")
	}
	days := cfg.Days
	if days <= 0 {
		days = 60
	}
	ds, err := geolife.Generate(geolife.Config{
		Grid: g,
		Days: days,
		// Each day must be long enough to slice a T-step evaluation run.
		StepsPerDay: maxInt(cfg.T, 48),
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	chain, pi, err := ds.Train(0.001)
	if err != nil {
		return nil, err
	}
	trajs := make([][]int, cfg.Runs)
	for k := range trajs {
		day := ds.States[k%len(ds.States)]
		trajs[k] = day[:cfg.T]
	}
	return &Workload{Grid: g, Chain: chain, Pi: pi, Trajs: trajs, Seed: cfg.Seed}, nil
}

// MechanismKind selects the case-study mechanism.
type MechanismKind int

const (
	// PLM is PriSTE with geo-indistinguishability (Algorithm 2).
	PLM MechanismKind = iota
	// DeltaLoc is PriSTE with δ-location-set privacy (Algorithm 3).
	DeltaLoc
)

// ReleaseSpec parameterises one release experiment.
type ReleaseSpec struct {
	Kind      MechanismKind
	Alpha     float64
	Delta     float64 // δ-location set only
	Epsilon   float64
	QPTimeout time.Duration
	// Decay overrides the budget decay factor (0 = the paper's 1/2).
	Decay float64
}

// RunReleases executes the PriSTE loop over every trajectory of the
// workload and returns the per-run step results.
func RunReleases(w *Workload, events []event.Event, spec ReleaseSpec) ([][]core.StepResult, error) {
	tp := world.NewHomogeneous(w.Chain)
	cfg := core.DefaultConfig(spec.Epsilon, spec.Alpha)
	if spec.QPTimeout > 0 {
		cfg.QPTimeout = spec.QPTimeout
	} else if spec.QPTimeout < 0 {
		cfg.QPTimeout = 0 // negative spec timeout means "no limit"
	}
	if spec.Decay > 0 {
		cfg.Decay = spec.Decay
	}
	// A shared stateless PLM lets the emission cache amortise across runs.
	var sharedPLM *lppm.PlanarLaplace
	if spec.Kind == PLM {
		sharedPLM = lppm.NewPlanarLaplace(w.Grid)
	}
	out := make([][]core.StepResult, len(w.Trajs))
	for k, traj := range w.Trajs {
		rng := rand.New(rand.NewSource(w.Seed + 1000003*int64(k+1)))
		var mech lppm.Perturber
		switch spec.Kind {
		case PLM:
			mech = sharedPLM
		case DeltaLoc:
			d, err := lppm.NewDeltaLocationSet(w.Grid, w.Chain, w.Pi, spec.Delta)
			if err != nil {
				return nil, err
			}
			mech = d
		default:
			return nil, fmt.Errorf("experiments: unknown mechanism kind %d", spec.Kind)
		}
		f, err := core.New(mech, tp, events, cfg, rng)
		if err != nil {
			return nil, err
		}
		results, err := f.Run(traj)
		if err != nil {
			return nil, err
		}
		out[k] = results
	}
	return out, nil
}

// PresenceRange builds the paper's PRESENCE(S={lo:hi}, T={start:end})
// event using the paper's 1-based inclusive notation, converting to the
// 0-based representation used internally.
func PresenceRange(m, stateLo, stateHi, timeStart, timeEnd int) (*event.Presence, error) {
	region, err := grid.RegionRange(m, stateLo-1, stateHi-1)
	if err != nil {
		return nil, err
	}
	return event.NewPresence(region, timeStart-1, timeEnd-1)
}

// PatternRange builds a PATTERN over consecutive timestamps with one
// region of the given 1-based state range per step.
func PatternRange(m int, stateRanges [][2]int, timeStart int) (*event.Pattern, error) {
	regions := make([]*grid.Region, len(stateRanges))
	for i, r := range stateRanges {
		region, err := grid.RegionRange(m, r[0]-1, r[1]-1)
		if err != nil {
			return nil, err
		}
		regions[i] = region
	}
	return event.NewPattern(regions, timeStart-1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
