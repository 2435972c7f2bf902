package metrics

import (
	"math"
	"testing"
	"time"

	"priste/internal/core"
	"priste/internal/grid"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %v want %v", s.Std, want)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Mean != 7 || one.Std != 0 {
		t.Fatalf("single summary = %+v", one)
	}
}

func run(alphas ...float64) []core.StepResult {
	out := make([]core.StepResult, len(alphas))
	for i, a := range alphas {
		out[i] = core.StepResult{T: i, Alpha: a, Obs: i % 3}
	}
	return out
}

func TestBudgetSeries(t *testing.T) {
	runs := [][]core.StepResult{run(1, 0.5), run(0, 0.5)}
	s, err := BudgetSeries(runs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean[0]-0.5) > 1e-12 || math.Abs(s.Mean[1]-0.5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Std[1] != 0 {
		t.Fatalf("std[1] = %v", s.Std[1])
	}
	if _, err := BudgetSeries(nil); err == nil {
		t.Error("no runs accepted")
	}
	if _, err := BudgetSeries([][]core.StepResult{run(1), run(1, 2)}); err == nil {
		t.Error("ragged runs accepted")
	}
}

func TestAvgBudget(t *testing.T) {
	s, err := AvgBudget([][]core.StepResult{run(1, 0), run(0.5, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-0.5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if _, err := AvgBudget(nil); err == nil {
		t.Error("no runs accepted")
	}
	if _, err := AvgBudget([][]core.StepResult{{}}); err == nil {
		t.Error("empty run accepted")
	}
}

func TestAvgEuclid(t *testing.T) {
	g := grid.MustNew(3, 1, 2) // 1-D map, 2 km cells
	trajs := [][]int{{0, 0}}
	runs := [][]core.StepResult{{
		{T: 0, Obs: 0},
		{T: 1, Obs: 2},
	}}
	s, err := AvgEuclid(g, trajs, runs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-2) > 1e-12 { // (0 + 4 km)/2
		t.Fatalf("mean = %v", s.Mean)
	}
	if _, err := AvgEuclid(g, trajs, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := AvgEuclid(g, [][]int{{0}}, runs); err == nil {
		t.Error("step-count mismatch accepted")
	}
}

func TestConservativeCountAndCheckTime(t *testing.T) {
	r := []core.StepResult{
		{ConservativeRejections: 2, CheckTime: time.Second},
		{ConservativeRejections: 1, CheckTime: 500 * time.Millisecond},
	}
	if ConservativeCount(r) != 3 {
		t.Fatalf("count = %d", ConservativeCount(r))
	}
}
