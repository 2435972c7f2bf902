// Command benchjson runs the repository's benchmark suite and writes the
// parsed results as a JSON document, so the perf trajectory (steps/sec,
// ns/op, allocs/op) is tracked as a build artifact from PR to PR instead
// of living in commit messages.
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_PR8.json] [-benchtime 1x] \
//	    [-spec "./internal/mat=.,./internal/world=.,.=ServerStep|SharedPlan|EngineStepCeiling"]
//
// Each -spec entry is package=benchRegexp, optionally suffixed
// @benchtime to override the global -benchtime for that entry alone
// (e.g. ".=ServerStep@400x" runs the serving benchmarks long enough
// for steady-state steps/sec while the expensive kernel benchmarks
// keep the short global budget). The default covers the mat
// and world kernel benchmarks plus the root serving benchmarks — the
// ServerStep pattern picks up every transport and ingest mode
// (BenchmarkServerStep over HTTP, BenchmarkServerStepRPC over the
// binary RPC protocol, BenchmarkServerStepStream/-HTTP over the
// windowed stream pipeline), so the document records them side by
// side, and EngineStepCeiling records the raw engine throughput the
// serving numbers are compared against.
//
// Serving benchmarks additionally report the server's per-stage latency
// means (decode, queue_wait, commit_hit/commit_miss, rebuild, wal_append, encode
// — the instrumentation behind /metricsz and `pristectl stats -stages`).
// benchjson lifts those into a top-level "stages" section per serving
// benchmark, with the stage sum and the measured end-to-end served mean
// side by side so the breakdown's coverage of real latency is auditable
// in the committed artifact.
//
// When the run includes BenchmarkEngineStepCeiling, benchjson also
// derives a "serving_gap" section: for every ServerStep* result it
// records served steps/sec against the engine ceiling and their ratio
// (served/ceiling — 1.0 means the transport adds no overhead), so the
// serving-overhead gap each PR is chasing is a single committed number
// per transport.
//
// When the run includes the kernel-comparison benchmarks (BenchmarkCommit
// over the chain=/kernel= grid, BenchmarkShadowCheck), benchjson derives
// a "kernels" section pairing each adaptive path against its in-run
// reference — adaptive dense vs the naive oracle kernels, banded-dense
// vs CSR over the truncated chain, float32 shadow vs exact check — plus
// the shadow path's engine-level fallback rate.
//
// Sweep mode (-cpu 1,2,4,8) runs the whole spec once per listed
// GOMAXPROCS value, each in its own `go test` subprocess with the
// GOMAXPROCS environment set. The first listed value produces the
// document's main "results" section (and stamps the document-level
// gomaxprocs), keeping it -compare-compatible with single-run baselines;
// every run also lands in "cpu_sweep" with a per-entry gomaxprocs, and a
// derived "parallel_scaling" section reports, for each throughput
// benchmark, the speedup and parallel efficiency of every multi-core row
// against the first-listed (normally 1-core) row.
//
// Regression mode compares two committed documents instead of running
// anything:
//
//	go run ./cmd/benchjson -compare [-threshold 0.15] OLD.json NEW.json
//
// Every benchmark present in both documents with a throughput metric
// (steps/sec or commits/sec) is compared; NEW falling more than
// -threshold below OLD on any of them fails the run (exit 1) with a
// per-benchmark table on stderr. CI runs it against the committed
// baseline with a generous threshold: runner hardware varies run to
// run, so only a large, consistent drop should fail a build. When the
// two documents disagree on gomaxprocs or go_version the comparison is
// meaningless (multi-core entries must never be diffed against 1-core
// baselines), so benchjson warns and skips gating (exit 0) instead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Package    string `json:"package"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Benchtime is set when the entry overrode the document-level
	// benchtime (the spec's @benchtime suffix).
	Benchtime string `json:"benchtime,omitempty"`
	// GOMAXPROCS is set on cpu_sweep entries: the width the run's
	// subprocess was pinned to (the document-level gomaxprocs covers
	// the main results section).
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Metrics maps unit → value, e.g. "ns/op", "allocs/op", "B/op",
	// "steps/sec", "commits/sec".
	Metrics map[string]float64 `json:"metrics"`
}

// StageBreakdown is one serving benchmark's per-stage latency decomposition,
// lifted from the benchmark's reported metrics: mean microseconds each stage
// contributed per served step, their sum, and the measured end-to-end served
// mean the sum should approximate.
type StageBreakdown struct {
	Name string `json:"name"`
	// StageMeansMicros maps stage → mean µs per served step, e.g.
	// "decode", "queue_wait", "commit_miss", "encode".
	StageMeansMicros map[string]float64 `json:"stage_means_us"`
	StageSumMicros   float64            `json:"stage_sum_us"`
	E2EMeanMicros    float64            `json:"e2e_mean_us"`
	// CoverageRatio is stage_sum / e2e — how much of the measured served
	// latency the instrumented stages account for.
	CoverageRatio float64 `json:"coverage_ratio"`
}

// ServingGap compares one serving benchmark against the raw engine
// ceiling measured in the same run: the fraction of engine throughput
// that survives the serving path (1.0 = the transport is free).
type ServingGap struct {
	Name                  string  `json:"name"`
	ServedStepsPerSec     float64 `json:"served_steps_per_sec"`
	CeilingStepsPerSec    float64 `json:"ceiling_steps_per_sec"`
	RatioServedOverCeil   float64 `json:"ratio"`
	OverheadMicrosPerStep float64 `json:"overhead_us_per_step"`
}

// KernelComparison pairs one adaptive kernel path against its in-run
// reference: Speedup is candidate/baseline for rate units (…/sec) and
// baseline/candidate for cost units (ns/op), so >1 always means the
// adaptive path won.
type KernelComparison struct {
	Name           string  `json:"name"`
	Baseline       string  `json:"baseline"`
	Candidate      string  `json:"candidate"`
	Unit           string  `json:"unit"`
	BaselineValue  float64 `json:"baseline_value"`
	CandidateValue float64 `json:"candidate_value"`
	Speedup        float64 `json:"speedup"`
}

// KernelSection is the derived kernel-dispatch summary.
type KernelSection struct {
	Comparisons []KernelComparison `json:"comparisons"`
	// ShadowFallbackRate is the fraction of shadow checks the shadow
	// path itself could not serve during BenchmarkShadowCheck (warm
	// operators: expected 0; the qp-margin fallback is reported by the
	// serving layer's shadow_fallbacks counter instead).
	ShadowFallbackRate float64 `json:"shadow_fallback_rate"`
}

// ScalingRow is one benchmark's throughput at one swept GOMAXPROCS
// value against the sweep's base (first-listed, normally 1-core) row:
// Speedup = value/base_value, Efficiency = speedup normalised by the
// core ratio (1.0 = perfect linear scaling).
type ScalingRow struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Value      float64 `json:"value"`
	BaseValue  float64 `json:"base_value"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// Doc is the output document.
type Doc struct {
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Benchtime   string           `json:"benchtime,omitempty"`
	Results     []Result         `json:"results"`
	Stages      []StageBreakdown `json:"stages,omitempty"`
	ServingGap  []ServingGap     `json:"serving_gap,omitempty"`
	Kernels     *KernelSection   `json:"kernels,omitempty"`
	// CPUSweep holds every per-GOMAXPROCS run of a -cpu sweep
	// (including the base run); ParallelScaling the derived
	// speedup/efficiency rows against the base run.
	CPUSweep        []Result     `json:"cpu_sweep,omitempty"`
	ParallelScaling []ScalingRow `json:"parallel_scaling,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_PR9.json", "output file")
	benchtime := flag.String("benchtime", "", "passed to go test -benchtime; empty = default")
	spec := flag.String("spec", "./internal/mat=.,./internal/world=.,.=ServerStep|SharedPlan|EngineStepCeiling",
		"comma-separated package=benchRegexp entries")
	cpu := flag.String("cpu", "", "comma-separated GOMAXPROCS sweep (e.g. 1,2,4,8): run the spec once per value; first value fills the main results section, every run lands in cpu_sweep + parallel_scaling")
	compare := flag.Bool("compare", false, "compare two committed documents (OLD.json NEW.json args) instead of running benchmarks; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.15, "with -compare: maximum tolerated fractional throughput drop before failing")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two args: OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	cpus, err := parseCPUList(*cpu)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	doc := Doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Benchtime:   *benchtime,
	}
	if len(cpus) == 0 {
		// Single run inheriting the process environment.
		doc.Results, err = runSpec(*spec, *benchtime, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	} else {
		// Sweep: the first listed width is the document's canonical
		// environment (so -compare against single-run baselines stays
		// meaningful), the rest only feed cpu_sweep/parallel_scaling.
		doc.GOMAXPROCS = cpus[0]
		for i, w := range cpus {
			fmt.Printf("benchjson: sweep GOMAXPROCS=%d (%d/%d)\n", w, i+1, len(cpus))
			results, err := runSpec(*spec, *benchtime, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			if i == 0 {
				doc.Results = results
			}
			for _, r := range results {
				r.GOMAXPROCS = w
				doc.CPUSweep = append(doc.CPUSweep, r)
			}
		}
		doc.ParallelScaling = parallelScaling(doc.CPUSweep, cpus[0])
	}
	doc.Stages = stageBreakdowns(doc.Results)
	doc.ServingGap = servingGaps(doc.Results)
	doc.Kernels = kernelSection(doc.Results)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(doc.Results), *out)
}

// parseCPUList parses the -cpu flag: a comma-separated list of positive
// GOMAXPROCS values, empty meaning "no sweep".
func parseCPUList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -cpu entry %q (want positive integers, e.g. -cpu 1,2,4)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// runSpec runs every spec entry once. gomaxprocs > 0 pins each go test
// subprocess to that width via the GOMAXPROCS environment; 0 inherits
// the parent environment.
func runSpec(spec, benchtime string, gomaxprocs int) ([]Result, error) {
	var all []Result
	for _, entry := range strings.Split(spec, ",") {
		pkg, re, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad spec entry %q (want package=regexp[@benchtime])", entry)
		}
		bt, overridden := benchtime, ""
		if re2, suffix, ok := strings.Cut(re, "@"); ok {
			re, bt, overridden = re2, suffix, suffix
		}
		results, err := runPackage(pkg, re, bt, gomaxprocs)
		if err != nil {
			return nil, err
		}
		for i := range results {
			results[i].Benchtime = overridden
		}
		all = append(all, results...)
	}
	return all, nil
}

// parallelScaling derives the speedup/efficiency rows from a sweep: for
// every benchmark with a throughput metric at the base width, each
// non-base width contributes one row per throughput unit.
func parallelScaling(sweep []Result, baseCPU int) []ScalingRow {
	type key struct{ name, unit string }
	base := map[key]float64{}
	for _, r := range sweep {
		if r.GOMAXPROCS != baseCPU {
			continue
		}
		for _, unit := range throughputUnits {
			if v, ok := r.Metrics[unit]; ok && v > 0 {
				base[key{r.Name, unit}] = v
			}
		}
	}
	var out []ScalingRow
	for _, r := range sweep {
		if r.GOMAXPROCS == baseCPU {
			continue
		}
		for _, unit := range throughputUnits {
			v, ok := r.Metrics[unit]
			bv := base[key{r.Name, unit}]
			if !ok || v <= 0 || bv <= 0 {
				continue
			}
			speedup := v / bv
			out = append(out, ScalingRow{
				Name:       r.Name,
				Unit:       unit,
				GOMAXPROCS: r.GOMAXPROCS,
				Value:      v,
				BaseValue:  bv,
				Speedup:    speedup,
				Efficiency: speedup * float64(baseCPU) / float64(r.GOMAXPROCS),
			})
		}
	}
	return out
}

// stageBreakdowns extracts the stage decomposition from every result
// that carries one (the serving benchmarks report stage_sum_us/e2e_us
// plus per-stage "<stage>_us" metrics).
func stageBreakdowns(results []Result) []StageBreakdown {
	var out []StageBreakdown
	for _, r := range results {
		e2e, okE2E := r.Metrics["e2e_us"]
		sum, okSum := r.Metrics["stage_sum_us"]
		if !okE2E || !okSum {
			continue
		}
		sb := StageBreakdown{
			Name:             r.Name,
			StageMeansMicros: map[string]float64{},
			StageSumMicros:   sum,
			E2EMeanMicros:    e2e,
		}
		for unit, v := range r.Metrics {
			stage, ok := strings.CutSuffix(unit, "_us")
			if !ok || stage == "stage_sum" || stage == "e2e" {
				continue
			}
			sb.StageMeansMicros[stage] = v
		}
		if e2e > 0 {
			sb.CoverageRatio = sum / e2e
		}
		out = append(out, sb)
	}
	return out
}

// servingGaps derives the serving-overhead section: every ServerStep*
// result's steps/sec against the BenchmarkEngineStepCeiling steps/sec
// from the same run. Nil when the run didn't include the ceiling.
func servingGaps(results []Result) []ServingGap {
	var ceiling float64
	for _, r := range results {
		if r.Name == "BenchmarkEngineStepCeiling" {
			ceiling = r.Metrics["steps/sec"]
		}
	}
	if ceiling <= 0 {
		return nil
	}
	var out []ServingGap
	for _, r := range results {
		if !strings.HasPrefix(r.Name, "BenchmarkServerStep") {
			continue
		}
		served, ok := r.Metrics["steps/sec"]
		if !ok || served <= 0 {
			continue
		}
		out = append(out, ServingGap{
			Name:                  r.Name,
			ServedStepsPerSec:     served,
			CeilingStepsPerSec:    ceiling,
			RatioServedOverCeil:   served / ceiling,
			OverheadMicrosPerStep: (1/served - 1/ceiling) * 1e6,
		})
	}
	return out
}

// kernelSection derives the adaptive-vs-reference comparisons from the
// run's results. Nil when none of the paired benchmarks ran.
func kernelSection(results []Result) *KernelSection {
	metric := func(name, unit string) (float64, bool) {
		for _, r := range results {
			if r.Name == name {
				v, ok := r.Metrics[unit]
				return v, ok
			}
		}
		return 0, false
	}
	// (name, baseline bench, candidate bench, unit); rate units score
	// candidate/baseline, cost units baseline/candidate.
	pairs := [][4]string{
		{"adaptive_dense_vs_oracle_commit_m400",
			"BenchmarkCommit/chain=gauss/kernel=oracle/m400",
			"BenchmarkCommit/chain=gauss/kernel=dense/m400", "commits/sec"},
		{"banded_dense_vs_csr_commit_m400",
			"BenchmarkCommit/chain=trunc/kernel=sparse/m400",
			"BenchmarkCommit/chain=trunc/kernel=dense/m400", "commits/sec"},
		{"shadow_vs_exact_check_m400",
			"BenchmarkShadowCheck/path=exact/m400",
			"BenchmarkShadowCheck/path=shadow/m400", "ns/op"},
		{"shadow_vs_exact_check_m900",
			"BenchmarkShadowCheck/path=exact/m900",
			"BenchmarkShadowCheck/path=shadow/m900", "ns/op"},
		{"blocked_vs_naive_mul_m400",
			"BenchmarkMulNaive400",
			"BenchmarkMulBlocked400", "ns/op"},
	}
	sec := &KernelSection{}
	for _, p := range pairs {
		base, okB := metric(p[1], p[3])
		cand, okC := metric(p[2], p[3])
		if !okB || !okC || base <= 0 || cand <= 0 {
			continue
		}
		speedup := cand / base
		if strings.HasSuffix(p[3], "/op") {
			speedup = base / cand
		}
		sec.Comparisons = append(sec.Comparisons, KernelComparison{
			Name: p[0], Baseline: p[1], Candidate: p[2], Unit: p[3],
			BaselineValue: base, CandidateValue: cand, Speedup: speedup,
		})
	}
	for _, r := range results {
		if fr, ok := r.Metrics["fallback-rate"]; ok && fr > sec.ShadowFallbackRate {
			sec.ShadowFallbackRate = fr
		}
	}
	if len(sec.Comparisons) == 0 {
		return nil
	}
	return sec
}

// throughputUnits are the metrics the -compare mode guards. Cost metrics
// (ns/op, B/op) are deliberately excluded: they swing with benchtime and
// iteration-count warm-up far more than the derived rates do.
var throughputUnits = []string{"steps/sec", "commits/sec"}

// runCompare loads two documents and fails (exit code 1) when NEW falls
// more than threshold below OLD on any shared throughput metric. A
// gomaxprocs or go_version mismatch between the documents makes the
// throughput diff meaningless, so it warns and skips gating (exit 0)
// rather than failing a build on an environment change.
func runCompare(oldPath, newPath string, threshold float64) int {
	load := func(path string) (*Doc, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d Doc
		if err := json.Unmarshal(buf, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	oldDoc, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS || oldDoc.GoVersion != newDoc.GoVersion {
		fmt.Fprintf(os.Stderr,
			"benchjson: WARNING: environment mismatch between documents — skipping regression gating\n"+
				"  %s: gomaxprocs=%d go=%s\n  %s: gomaxprocs=%d go=%s\n"+
				"throughput measured at different core counts or toolchains is not comparable; regenerate the baseline in the new environment\n",
			oldPath, oldDoc.GOMAXPROCS, oldDoc.GoVersion,
			newPath, newDoc.GOMAXPROCS, newDoc.GoVersion)
		return 0
	}
	byName := func(d *Doc) map[string]map[string]float64 {
		m := make(map[string]map[string]float64, len(d.Results))
		for _, r := range d.Results {
			m[r.Name] = r.Metrics
		}
		return m
	}
	oldBy, newBy := byName(oldDoc), byName(newDoc)
	compared, regressions := 0, 0
	for name, oldMetrics := range oldBy {
		newMetrics, ok := newBy[name]
		if !ok {
			continue // renamed/removed benchmarks are not regressions
		}
		for _, unit := range throughputUnits {
			ov, okO := oldMetrics[unit]
			nv, okN := newMetrics[unit]
			if !okO || !okN || ov <= 0 {
				continue
			}
			compared++
			change := nv/ov - 1
			status := "ok"
			if change < -threshold {
				status = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(os.Stderr, "%-60s %12s %14.2f -> %14.2f  %+6.1f%%  %s\n",
				name, unit, ov, nv, change*100, status)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no shared throughput metrics to compare")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d of %d throughput metrics regressed more than %.0f%%\n",
			regressions, compared, threshold*100)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d throughput metrics within %.0f%% of baseline\n",
		compared, threshold*100)
	return 0
}

// runPackage executes the package's benchmarks and parses the output.
// gomaxprocs > 0 pins the subprocess via the GOMAXPROCS environment.
func runPackage(pkg, benchRe, benchtime string, gomaxprocs int) ([]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	if gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, outBuf.String())
	}
	// Benchmark names carry the subprocess's GOMAXPROCS suffix, which is
	// the pinned width in sweep mode, not this process's.
	procs := gomaxprocs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	var results []Result
	sc := bufio.NewScanner(&outBuf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(pkg, sc.Text(), procs); ok {
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// parseLine parses one "BenchmarkName-P  N  v1 unit1  v2 unit2 ..." line,
// where P is the procs the benchmark binary ran with.
func parseLine(pkg, line string, procs int) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Package:    pkg,
		Name:       strings.TrimSuffix(fields[0], fmt.Sprintf("-%d", procs)),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
