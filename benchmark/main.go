// Command benchmark is the repository's service benchmark: it builds a
// real pristed deployment in this process from the public constructors,
// drives it with a seeded closed-loop generator, checks every output and
// prints every metric by name and unit. README.md defines the workloads
// and metrics; BENCHMARK.json at the repository root declares them to
// the driver.
//
//	benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-dir DIR]
//	benchmark -workload all  ...        every workload, one child process each
//	benchmark -calibrate N   ...        noise calibration, two sets of N runs (of one workload with -workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name, or \"all\" to run each in its own child process")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 15, "length of the measured phase (BENCHMARK.json run_seconds)")
		trace     = flag.Int("trace", 0, "1 runs the traced protocol and prints the per-layer metrics instead of the end-to-end ones")
		dir       = flag.String("dir", ".bench_build", "directory for stores and span files; must be on a real disk")
		smoke     = flag.Bool("smoke", false, "shrink every workload to test size (no number it prints means anything)")
		calibrate = flag.Int("calibrate", 0, "run two interleaved sets of N full runs of every workload and compare them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}

	if *calibrate > 0 {
		os.Exit(runCalibration(*calibrate, *workload, *seed, *seconds, *dir))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *dir, *smoke))
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		fatal(2, "unknown workload %q; known: %v", *workload, workloadNames())
	}
	if *smoke {
		spec = spec.smoke()
	}

	pinRuntime()
	base, err := filepath.Abs(*dir)
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	env := readEnvironment(*seed, base)
	for _, w := range env.Warnings {
		fmt.Fprintln(os.Stderr, "WARNING:", w)
	}
	printJSON(map[string]any{"workload": spec.name, "why": spec.why, "trace": *trace, "seconds": *seconds, "environment": env})

	o := runOptions{spec: spec, seed: *seed, seconds: *seconds, base: base}
	var res result
	if *trace != 0 {
		res, err = runTraced(o)
	} else {
		res, err = run(o)
	}
	if err != nil {
		fatal(1, "%s: %v", spec.name, err)
	}
	printMetrics(res)
	// The last line is the result. A run that printed one exits 0 even
	// when it is incorrect: the verdict is the "correct" field.
	printJSON(res)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(b))
}

// printMetrics lists every metric by name with its unit.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
}
