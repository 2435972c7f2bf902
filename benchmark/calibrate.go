package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest looks for BENCHMARK.json in the working directory and
// its parent (the binary is run from either).
func readManifest() (manifest, error) {
	var m manifest
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		return m, json.Unmarshal(b, &m)
	}
	return m, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// noise is what two sets of runs of one metric on one workload say about
// the measurement: A[i] and B[i] are two runs of the same binary on the
// same seed.
type noise struct {
	medA, medB float64
	// apart is |medA-medB| over the smaller: what a gate that compares
	// two medians of identical code would see.
	apart float64
	// spreadA and spreadB are each set's interquartile range over its
	// median, across its seeds — the statistic the driver holds to the
	// bound.
	spreadA, spreadB float64
	// paired is the median over the seeds of |A[i]-B[i]| over their
	// mean: run-to-run noise with the inputs held equal.
	paired float64
}

func measureNoise(a, b []float64) noise {
	n := noise{medA: median(a), medB: median(b), spreadA: iqrShare(a), spreadB: iqrShare(b)}
	n.apart = math.Abs(n.medA-n.medB) / math.Min(math.Abs(n.medA), math.Abs(n.medB))
	diffs := make([]float64, 0, len(a))
	for i := range a {
		if i < len(b) {
			diffs = append(diffs, 2*math.Abs(a[i]-b[i])/(math.Abs(a[i])+math.Abs(b[i])))
		}
	}
	n.paired = median(diffs)
	return n
}

// agreeCap is the widest bound the issue that specified this benchmark
// allows a gated metric; the calibration holds two medians of the same
// code to half of it even where BENCHMARK.json declares a wider bound
// (README.md, "How the bounds were set").
const agreeCap = 0.10

// verdict holds the noise of a gated metric to its bound: two medians
// of the same code, on the same seeds, may be half a bound apart — and
// no more than half of agreeCap — and neither set may spread across its
// seeds wider than the bound. No metric is exempt.
func (n noise) verdict(bound float64) (string, bool) {
	switch spread := math.Max(n.spreadA, n.spreadB); {
	case n.apart > math.Min(bound, agreeCap)/2:
		return "MEDIANS DISAGREE", false
	case spread > bound:
		return "SPREAD OVER BOUND", false
	case spread > bound/3:
		return "ok (spread over a third of the bound)", true
	}
	return "ok", true
}

// sameEnvironment says whether two runs' environment blocks describe the same
// machine and the same pinned runtime; their numbers do not compare
// otherwise.
func sameEnvironment(a, b environment) error {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"gogc", a.GOGC, b.GOGC},
		{"nproc", a.NProc, b.NProc},
		{"go_version", a.GoVersion, b.GoVersion},
		{"cpu_model", a.CPUModel, b.CPUModel},
		{"kernel", a.Kernel, b.Kernel},
		{"store_fs", a.StoreFS, b.StoreFS},
		{"rss_reset", a.RSSReset, b.RSSReset},
	} {
		if f.a != f.b {
			return fmt.Errorf("runs differ in %s (%v and %v) and do not compare", f.name, f.a, f.b)
		}
	}
	return nil
}

// runCalibration measures the benchmark's own noise: two interleaved
// sets A and B of n full runs per workload of this same binary, A[i] and
// B[i] on the same seed (seed+i), so that the sets differ by run-to-run
// noise alone while each set's spread across its seeds is the statistic
// the driver computes. It prints one row per workload and gated metric
// and returns non-zero if any row fails its verdict, any run is
// incorrect, or two runs' environments differ. only restricts it to one
// workload ("" and "all" take every one).
func runCalibration(n int, only string, seed int64, seconds float64, dir string) int {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "benchmark: -calibrate needs at least 5 runs per set")
		return 2
	}
	man, err := readManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sort.Slice(man.EndToEnd, func(i, j int) bool { return man.EndToEnd[i].Name < man.EndToEnd[j].Name })
	code := 0
	var first *environment
	fmt.Printf("| workload | metric | bound | median A | median B | medians apart | spread A | spread B | same-seed noise | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		if only != "" && only != "all" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			runSeed := seed + int64(i/2)
			res, env, err := runChild(w.name, runSeed, seconds, 0, dir, false, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if first == nil {
				first = &env
			} else if err := sameEnvironment(*first, env); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d is incorrect (%d of %d operations failed)\n", w.name, runSeed, res.Failed, res.Attempted)
				code = 1
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, em := range man.EndToEnd {
			ns := measureNoise(sets[0][em.Name], sets[1][em.Name])
			verdict, ok := ns.verdict(em.Bound)
			if !ok {
				code = 1
			}
			fmt.Printf("| %s | %s | %.3g%% | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				w.name, em.Name, 100*em.Bound, ns.medA, ns.medB, 100*ns.apart, 100*ns.spreadA, 100*ns.spreadB, 100*ns.paired, verdict)
		}
	}
	return code
}
