package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/metrics"
	"priste/internal/world"
)

// Fig. 14: runtime of the two-possible-world quantification versus the
// naive exponential baseline (Algorithm 4) as the PATTERN event grows in
// time length and region width. Table III: the conservative-release
// threshold trade-off.

// RuntimeConfig parameterises Fig. 14.
type RuntimeConfig struct {
	Synth SyntheticConfig
	// Lengths are the event time lengths swept at FixedWidth; Widths the
	// event widths swept at FixedLength (paper: 5..15 and 5..15 at 5).
	Lengths     []int
	Widths      []int
	FixedWidth  int
	FixedLength int
	// Trials is the number of random events averaged per point (paper:
	// 100).
	Trials int
	// BaselineCap skips the naive baseline when width^length exceeds it
	// (the baseline is exponential; the paper lets it run to ~10⁴ s,
	// which a test harness cannot afford). Skipped cells show "-".
	BaselineCap float64
	Alpha       float64
	Seed        int64
}

// DefaultRuntime returns a configuration whose baseline cells finish in
// seconds; widen Lengths/Widths and raise BaselineCap to approach the
// paper's ranges.
func DefaultRuntime(synth SyntheticConfig) RuntimeConfig {
	return RuntimeConfig{
		Synth:       synth,
		Lengths:     []int{2, 4, 6, 8, 10},
		Widths:      []int{2, 4, 6, 8, 10},
		FixedWidth:  3,
		FixedLength: 5,
		Trials:      5,
		BaselineCap: 5e6,
		Alpha:       1,
		Seed:        7,
	}
}

// Fig14 measures quantification runtime and returns two tables: runtime
// versus event length and versus event width.
func Fig14(cfg RuntimeConfig) (lenTable, widthTable *Table, err error) {
	w, err := Synthetic(cfg.Synth)
	if err != nil {
		return nil, nil, err
	}
	lenTable, err = runtimeSweep(w, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	widthTable, err = runtimeSweep(w, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	return lenTable, widthTable, nil
}

func runtimeSweep(w *Workload, cfg RuntimeConfig, byLength bool) (*Table, error) {
	var sweep []int
	var name, varying string
	if byLength {
		sweep, varying = cfg.Lengths, "length"
		name = fmt.Sprintf("Fig14 runtime vs event length (width=%d)", cfg.FixedWidth)
	} else {
		sweep, varying = cfg.Widths, "width"
		name = fmt.Sprintf("Fig14 runtime vs event width (length=%d)", cfg.FixedLength)
	}
	tab := &Table{
		Name:    name,
		Note:    fmt.Sprintf("PATTERN events, %d trials per point; baseline skipped above %g trajectories", cfg.Trials, cfg.BaselineCap),
		Columns: []string{varying, "baseline_s", "priste_s", "trajectories"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plm := lppm.NewPlanarLaplace(w.Grid)
	em, err := plm.Emission(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	tp := world.NewHomogeneous(w.Chain)
	for _, v := range sweep {
		length, width := cfg.FixedLength, cfg.FixedWidth
		if byLength {
			length = v
		} else {
			width = v
		}
		trajCount := math.Pow(float64(width), float64(length))
		var baseTotal, fastTotal time.Duration
		baseRuns := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			ev, obs, cols, err := randomPatternInstance(rng, w, em, length, width)
			if err != nil {
				return nil, err
			}
			// PriSTE: two-possible-world joint probability.
			md, err := world.NewModel(tp, ev)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, _, err := world.JointAndMarginal(md, w.Pi, cols); err != nil {
				return nil, err
			}
			fastTotal += time.Since(start)
			// Baseline: Algorithm 4, when affordable.
			if trajCount <= cfg.BaselineCap {
				evStart, evEnd := ev.Window()
				emFn := func(t, o, s int) float64 { return em.At(s, o) }
				start = time.Now()
				if _, err := event.NaivePatternJoint(w.Chain, w.Pi, ev, obs[evStart:evEnd+1], emFn); err != nil {
					return nil, err
				}
				baseTotal += time.Since(start)
				baseRuns++
			}
		}
		base := "-"
		if baseRuns > 0 {
			base = f6(baseTotal.Seconds() / float64(baseRuns))
		}
		tab.AddRow(fmt.Sprintf("%d", v), base,
			f6(fastTotal.Seconds()/float64(cfg.Trials)), f6(trajCount))
	}
	return tab, nil
}

// randomPatternInstance builds a random PATTERN event of the given length
// and width starting at 0-based time 2, plus an observation sequence
// covering timestamps 0..end and the matching emission columns.
func randomPatternInstance(rng *rand.Rand, w *Workload, em *mat.Matrix, length, width int) (*event.Pattern, []int, []mat.Vector, error) {
	m := w.Grid.States()
	regions := make([]*grid.Region, length)
	for i := range regions {
		r, err := randomContiguousRegion(rng, m, width)
		if err != nil {
			return nil, nil, nil, err
		}
		regions[i] = r
	}
	const start = 2
	ev, err := event.NewPattern(regions, start)
	if err != nil {
		return nil, nil, nil, err
	}
	_, end := ev.Window()
	traj := w.Chain.SamplePath(rng, w.Pi, end+1)
	obs := make([]int, end+1)
	cols := make([]mat.Vector, end+1)
	for t := range obs {
		o, err := lppm.SampleRow(rng, em, traj[t])
		if err != nil {
			return nil, nil, nil, err
		}
		obs[t] = o
		cols[t] = em.Col(o)
	}
	return ev, obs, cols, nil
}

// TableIIIConfig parameterises the conservative-release threshold sweep.
type TableIIIConfig struct {
	Synth SyntheticConfig
	// Thresholds are the QP time budgets; 0 means "none" (unlimited).
	Thresholds []time.Duration
	Alpha      float64
	Epsilon    float64
}

// DefaultTableIII mirrors Table III with thresholds scaled to this
// solver's speed. A stated departure from the paper, like the synthetic
// Geolife substitute: CPLEX searches, and can spend any threshold it is
// given without an answer, while internal/qp's edge scan decides a check
// exactly in a fixed O(m²) pass (≈ 14 µs at m = 100, ≈ 250 µs at m = 400).
// The conservative-release column is therefore driven by the deadline
// alone — a candidate is held back when the clock runs out mid-scan,
// never because the solver is unsure — and is 0 at 1 ms and above on the
// default scale.
func DefaultTableIII(synth SyntheticConfig) TableIIIConfig {
	return TableIIIConfig{
		Synth:      synth,
		Thresholds: []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 0},
		Alpha:      1,
		Epsilon:    0.5,
	}
}

// TableIII runs the release loop under each threshold and reports average
// total runtime, conservative-release count, released budget and
// Euclidean distance.
func TableIII(cfg TableIIIConfig) (*Table, error) {
	w, err := Synthetic(cfg.Synth)
	if err != nil {
		return nil, err
	}
	events, err := BudgetFigConfig{States: [2]int{1, 10}, Windows: [][2]int{{4, 8}}}.events(w)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Name:    "TableIII runtime vs conservative-release threshold",
		Note:    fmt.Sprintf("%g-PLM, eps=%g, runs: %d", cfg.Alpha, cfg.Epsilon, len(w.Trajs)),
		Columns: []string{"threshold", "avg_total_runtime_s", "conservative_releases", "avg_budget", "avg_dist"},
	}
	for _, th := range cfg.Thresholds {
		spec := ReleaseSpec{Kind: PLM, Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, QPTimeout: th}
		if th == 0 {
			spec.QPTimeout = -1 // "none": RunReleases maps this to unlimited
		}
		start := time.Now()
		runs, err := RunReleases(w, events, spec)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds() / float64(len(runs))
		conservative := 0
		for _, r := range runs {
			conservative += metrics.ConservativeCount(r)
		}
		budget, err := metrics.AvgBudget(runs)
		if err != nil {
			return nil, err
		}
		dist, err := metrics.AvgEuclid(w.Grid, w.Trajs, runs)
		if err != nil {
			return nil, err
		}
		label := "none"
		if th > 0 {
			label = th.String()
		}
		tab.AddRow(label, f4(elapsed), fmt.Sprintf("%d", conservative), f4(budget.Mean), f4(dist.Mean))
	}
	return tab, nil
}

// randomContiguousRegion picks a contiguous run of `width` states starting
// at a random offset.
func randomContiguousRegion(rng *rand.Rand, m, width int) (*grid.Region, error) {
	if width > m {
		return nil, fmt.Errorf("experiments: width %d exceeds map size %d", width, m)
	}
	lo := rng.Intn(m - width + 1)
	return grid.RegionRange(m, lo, lo+width-1)
}
