// Package metrics implements the utility metrics of §V-A: the PLM privacy
// budget actually used (per timestamp and averaged over the horizon) and
// the Euclidean distance between true and released locations, aggregated
// over repeated runs.
package metrics

import (
	"fmt"
	"math"

	"priste/internal/core"
	"priste/internal/grid"
)

// Summary holds basic descriptive statistics.
type Summary struct {
	Mean, Std, Min, Max float64
	N                   int
}

// Summarize computes a Summary; an empty input yields zero values with
// N = 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s
}

// Series is a per-timestamp mean/std aggregate over runs (the quantity
// plotted in Figs. 7–10).
type Series struct {
	Mean, Std []float64
}

// BudgetSeries aggregates the released budget at each timestamp across
// runs. All runs must share a horizon.
func BudgetSeries(runs [][]core.StepResult) (Series, error) {
	if len(runs) == 0 {
		return Series{}, fmt.Errorf("metrics: no runs")
	}
	horizon := len(runs[0])
	for i, r := range runs {
		if len(r) != horizon {
			return Series{}, fmt.Errorf("metrics: run %d has %d steps, want %d", i, len(r), horizon)
		}
	}
	s := Series{Mean: make([]float64, horizon), Std: make([]float64, horizon)}
	col := make([]float64, len(runs))
	for t := 0; t < horizon; t++ {
		for i, r := range runs {
			col[i] = r[t].Alpha
		}
		sum := Summarize(col)
		s.Mean[t] = sum.Mean
		s.Std[t] = sum.Std
	}
	return s, nil
}

// AvgBudget returns the budget averaged over timestamps and runs (left
// panels of Figs. 11–13).
func AvgBudget(runs [][]core.StepResult) (Summary, error) {
	if len(runs) == 0 {
		return Summary{}, fmt.Errorf("metrics: no runs")
	}
	perRun := make([]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) == 0 {
			return Summary{}, fmt.Errorf("metrics: empty run")
		}
		var sum float64
		for _, step := range r {
			sum += step.Alpha
		}
		perRun = append(perRun, sum/float64(len(r)))
	}
	return Summarize(perRun), nil
}

// AvgEuclid returns the Euclidean distance between the true and released
// cells, averaged over timestamps and runs, in the grid's user units
// (right panels of Figs. 11–13).
func AvgEuclid(g *grid.Grid, trajs [][]int, runs [][]core.StepResult) (Summary, error) {
	if len(runs) != len(trajs) {
		return Summary{}, fmt.Errorf("metrics: %d runs but %d trajectories", len(runs), len(trajs))
	}
	if len(runs) == 0 {
		return Summary{}, fmt.Errorf("metrics: no runs")
	}
	perRun := make([]float64, 0, len(runs))
	for k, r := range runs {
		if len(r) != len(trajs[k]) {
			return Summary{}, fmt.Errorf("metrics: run %d has %d steps but trajectory has %d", k, len(r), len(trajs[k]))
		}
		if len(r) == 0 {
			return Summary{}, fmt.Errorf("metrics: empty run")
		}
		var sum float64
		for t, step := range r {
			sum += g.Dist(trajs[k][t], step.Obs)
		}
		perRun = append(perRun, sum/float64(len(r)))
	}
	return Summarize(perRun), nil
}

// ConservativeCount totals the conservative rejections across a run
// (Table III's "# of Conservative Release").
func ConservativeCount(run []core.StepResult) int {
	n := 0
	for _, s := range run {
		n += s.ConservativeRejections
	}
	return n
}
