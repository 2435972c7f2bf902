// Command experiments regenerates the paper's evaluation (§V): Figs. 7–14
// and Table III, as CSV files plus an aligned-text report.
//
// Usage:
//
//	go run ./cmd/experiments [flags]
//
//	-out dir       output directory for CSV files (default "results")
//	-only list     comma-separated subset, e.g. "fig7,fig11,table3"
//	-grid n        map side length (default 10; paper uses 20)
//	-T n           trajectory length (default 30; paper uses 50)
//	-runs n        repeated runs per configuration (default 10; paper 100)
//	-full          paper-scale parameters (20×20, T=50, 100 runs) — slow
//
// Absolute numbers differ from the paper (different hardware, a synthetic
// Geolife substitute, and an exact O(m²) edge scan of the rank-one release
// conditions instead of CPLEX). One column differs in kind: Table III's
// conservative releases count candidates whose check the deadline cut
// short, and the scan is never "not sure", so the count is 0 from the
// 1 ms threshold up at the default scale; only thresholds shorter than a
// scan (50 µs, 200 µs) hold anything back.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"priste/internal/experiments"
)

func main() {
	var (
		outDir  = flag.String("out", "results", "output directory for CSV files")
		only    = flag.String("only", "", "comma-separated subset (fig7..fig14, table3, pattern)")
		gridN   = flag.Int("grid", 10, "map side length")
		horizon = flag.Int("T", 30, "trajectory length")
		runs    = flag.Int("runs", 10, "runs per configuration")
		full    = flag.Bool("full", false, "paper-scale parameters (slow)")
	)
	flag.Parse()

	if *full {
		*gridN, *horizon, *runs = 20, 50, 100
	}
	synth := experiments.SyntheticConfig{
		W: *gridN, H: *gridN, Cell: 1, Sigma: 1, T: *horizon, Runs: *runs, Seed: 1,
	}
	geo := experiments.GeolifeConfig{
		W: *gridN, H: *gridN, CellKm: 1, Days: 4 * *runs, T: *horizon, Runs: *runs, Seed: 2,
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	emit := func(key string, tabs ...*experiments.Table) {
		for i, tab := range tabs {
			name := key
			if len(tabs) > 1 {
				name = fmt.Sprintf("%s_%c", key, 'a'+i)
			}
			path := filepath.Join(*outDir, name+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println(tab)
			fmt.Printf("(written to %s)\n\n", path)
		}
	}

	run := func(key string, f func() ([]*experiments.Table, error)) {
		if !selected(key) {
			return
		}
		start := time.Now()
		fmt.Printf("--- %s ---\n", key)
		tabs, err := f()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", key, err))
		}
		emit(key, tabs...)
		fmt.Printf("[%s done in %v]\n\n", key, time.Since(start).Round(time.Millisecond))
	}

	pair := func(a, b *experiments.Table, err error) ([]*experiments.Table, error) {
		return []*experiments.Table{a, b}, err
	}
	single := func(t *experiments.Table, err error) ([]*experiments.Table, error) {
		return []*experiments.Table{t}, err
	}

	run("fig7", func() ([]*experiments.Table, error) {
		return pair(experiments.BudgetFig("Fig7", experiments.DefaultFig7(synth)))
	})
	run("fig8", func() ([]*experiments.Table, error) {
		return pair(experiments.BudgetFig("Fig8", experiments.DefaultFig8(synth)))
	})
	run("fig9", func() ([]*experiments.Table, error) {
		return pair(experiments.BudgetFig("Fig9", experiments.DefaultFig9(synth)))
	})
	run("fig10", func() ([]*experiments.Table, error) {
		return pair(experiments.BudgetFig("Fig10", experiments.DefaultFig10(synth)))
	})
	run("fig11", func() ([]*experiments.Table, error) {
		return single(experiments.Fig11(geo, []float64{0.5, 1, 3, 5}, []float64{0.1, 0.5, 1, 2}))
	})
	run("fig12", func() ([]*experiments.Table, error) {
		return single(experiments.Fig12(geo, 0.5, []float64{0.1, 0.3, 0.5, 0.7}, []float64{0.1, 1, 2, 3}))
	})
	run("fig13", func() ([]*experiments.Table, error) {
		return single(experiments.Fig13(synth, []float64{0.01, 0.1, 1, 10}, 1, []float64{0.1, 0.5, 1, 2}))
	})
	run("fig14", func() ([]*experiments.Table, error) {
		cfg := experiments.DefaultRuntime(synth)
		if *full {
			cfg.Lengths = []int{5, 7, 9, 11, 13, 15}
			cfg.Widths = []int{5, 7, 9, 11, 13, 15}
			cfg.FixedWidth = 5
			cfg.FixedLength = 5
			cfg.Trials = 20
			cfg.BaselineCap = 5e8
		}
		return pair(experiments.Fig14(cfg))
	})
	run("table3", func() ([]*experiments.Table, error) {
		cfg := experiments.DefaultTableIII(synth)
		if *full {
			cfg.Thresholds = append(cfg.Thresholds, time.Second)
		}
		return single(experiments.TableIII(cfg))
	})
	run("pattern", func() ([]*experiments.Table, error) {
		return single(experiments.AppendixPattern(geo, []float64{0.5, 1}, []float64{0.1, 0.5, 1, 2}))
	})
	run("ablation_decay", func() ([]*experiments.Table, error) {
		return single(experiments.AblationDecay(synth, []float64{0.25, 0.5, 0.75, 0.9}, 1, 0.5))
	})
	run("ablation_mismatch", func() ([]*experiments.Table, error) {
		return single(experiments.AblationModelMismatch(synth, 1, []float64{0.3, 1, 3}, 1, 0.5, 8))
	})
	run("security", func() ([]*experiments.Table, error) {
		return single(experiments.SecuritySweep(synth, 2.0, []float64{0.1, 0.5, 1, 2}))
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
