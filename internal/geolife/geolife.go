// Package geolife generates Geolife-like mobility data. The paper's
// evaluation (§V-A) trains a Markov transition matrix from real Geolife
// trajectories [19]; that dataset is not redistributable and the build is
// offline, so — per the reproduction's substitution rule — this package
// synthesises traces with the structural properties the experiments
// actually rely on:
//
//   - anchored daily routine: a home cell and a work cell with commutes
//     between them, so the trained chain has a strong, spatially-coherent
//     pattern (the "significant mobility pattern" of §V-C);
//   - dwell time at anchors and roughly shortest-path movement with noise
//     along commutes, so transitions are local on the km-scale map;
//   - occasional errands to random cells, so the chain keeps non-trivial
//     support off the main corridor.
//
// The output feeds the same training pipeline the authors used (R package
// "markovchain" → internal/markov.Train), yielding a realistic transition
// matrix and km-scale Euclidean utility numbers for Figs. 11 and 12.
package geolife

import (
	"fmt"
	"math/rand"

	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/trace"
)

// Config controls the generator.
type Config struct {
	// Grid is the km-scaled map; required.
	Grid *grid.Grid
	// Days is the number of simulated days (one trajectory per day).
	Days int
	// StepsPerDay is the number of timestamped records per day.
	StepsPerDay int
	// ErrandProb is the per-day probability of an errand detour.
	ErrandProb float64
	// WanderNoise is the probability of a random sidestep while
	// commuting (0 = perfectly direct commutes).
	WanderNoise float64
	// Seed makes the generator deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = 60
	}
	if c.StepsPerDay == 0 {
		c.StepsPerDay = 48
	}
	if c.ErrandProb == 0 {
		c.ErrandProb = 0.25
	}
	if c.WanderNoise == 0 {
		c.WanderNoise = 0.2
	}
	return c
}

func (c Config) validate() error {
	if c.Grid == nil {
		return fmt.Errorf("geolife: nil grid")
	}
	if c.Days < 0 || c.StepsPerDay < 0 {
		return fmt.Errorf("geolife: negative days/steps")
	}
	if c.ErrandProb < 0 || c.ErrandProb > 1 {
		return fmt.Errorf("geolife: errand probability %g outside [0,1]", c.ErrandProb)
	}
	if c.WanderNoise < 0 || c.WanderNoise > 1 {
		return fmt.Errorf("geolife: wander noise %g outside [0,1]", c.WanderNoise)
	}
	return nil
}

// Dataset is a generated corpus plus its anchors.
type Dataset struct {
	Grid       *grid.Grid
	Home, Work int
	// Raw are the continuous day trajectories; States their grid
	// discretisation.
	Raw    []trace.Raw
	States [][]int
}

// Generate synthesises a dataset.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := cfg.Grid
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Home in the lower-left quadrant, work in the upper-right, far
	// enough apart for a real corridor.
	home := g.State(rng.Intn(maxInt(1, g.W/3)), rng.Intn(maxInt(1, g.H/3)))
	work := g.State(g.W-1-rng.Intn(maxInt(1, g.W/3)), g.H-1-rng.Intn(maxInt(1, g.H/3)))

	ds := &Dataset{Grid: g, Home: home, Work: work}
	for d := 0; d < cfg.Days; d++ {
		day := generateDay(rng, g, home, work, cfg)
		ds.Raw = append(ds.Raw, day)
		ds.States = append(ds.States, trace.Discretize(g, day))
	}
	return ds, nil
}

// generateDay builds one day: dwell at home, commute, dwell at work
// (possibly with an errand), commute back, dwell at home.
func generateDay(rng *rand.Rand, g *grid.Grid, home, work int, cfg Config) trace.Raw {
	n := cfg.StepsPerDay
	var cells []int
	dwellHome := n / 6
	dwellWork := n / 4
	cells = append(cells, repeat(home, dwellHome)...)
	cells = append(cells, walk(rng, g, home, work, cfg.WanderNoise)...)
	cells = append(cells, repeat(work, dwellWork)...)
	if rng.Float64() < cfg.ErrandProb {
		errand := rng.Intn(g.States())
		cells = append(cells, walk(rng, g, work, errand, cfg.WanderNoise)...)
		cells = append(cells, repeat(errand, 2)...)
		cells = append(cells, walk(rng, g, errand, home, cfg.WanderNoise)...)
	} else {
		cells = append(cells, walk(rng, g, work, home, cfg.WanderNoise)...)
	}
	// Pad or trim to exactly n steps with a final home dwell.
	for len(cells) < n {
		cells = append(cells, home)
	}
	cells = cells[:n]

	day := make(trace.Raw, n)
	for i, s := range cells {
		cx, cy := g.Center(s)
		// GPS-style jitter within the cell.
		jx := (rng.Float64() - 0.5) * g.CellSize * 0.8
		jy := (rng.Float64() - 0.5) * g.CellSize * 0.8
		day[i] = trace.Point{X: cx + jx, Y: cy + jy, T: i}
	}
	return day
}

// walk returns a 4-neighbour lattice path from a to b, taking a random
// sidestep with probability noise at each move.
func walk(rng *rand.Rand, g *grid.Grid, a, b int, noise float64) []int {
	var path []int
	x, y := g.XY(a)
	bx, by := g.XY(b)
	guard := 4 * (g.W + g.H) // bound detours
	for (x != bx || y != by) && guard > 0 {
		guard--
		if rng.Float64() < noise {
			// Sidestep to a random in-bounds neighbour.
			dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
			d := dirs[rng.Intn(4)]
			if g.Contains(x+d[0], y+d[1]) {
				x += d[0]
				y += d[1]
				path = append(path, g.State(x, y))
				continue
			}
		}
		// Greedy step toward the target, breaking ties randomly.
		dx, dy := sign(bx-x), sign(by-y)
		if dx != 0 && (dy == 0 || rng.Intn(2) == 0) {
			x += dx
		} else if dy != 0 {
			y += dy
		}
		path = append(path, g.State(x, y))
	}
	return path
}

// Train fits the transition matrix and empirical initial distribution from
// the dataset with light smoothing, mirroring the paper's pipeline.
func (ds *Dataset) Train(smoothing float64) (*markov.Chain, mat.Vector, error) {
	chain, err := markov.Train(ds.States, markov.TrainOptions{
		States:    ds.Grid.States(),
		Smoothing: smoothing,
	})
	if err != nil {
		return nil, nil, err
	}
	pi, err := markov.EmpiricalInitial(ds.States, ds.Grid.States(), smoothing)
	if err != nil {
		return nil, nil, err
	}
	return chain, pi, nil
}

func repeat(s, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
