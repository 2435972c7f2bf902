package main

import (
	"sort"
	"testing"
)

func readDeclared(t *testing.T) manifest {
	t.Helper()
	d, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameMetrics holds what a run printed to what BENCHMARK.json declares:
// the same names, each with the declared unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []manifestMetric) {
	t.Helper()
	var missing, extra []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		if !ok {
			missing = append(missing, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s printed in %q, declared in %q", what, w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: declared but not printed %v; printed but not declared %v", what, missing, extra)
	}
}

func TestManifestNamesWorkloads(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
}

// TestSmoke runs every workload at test size through both protocols: all
// phases and all checks, no timing assertion. It keeps the harness
// building and correct against the packages it drives.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	pinRuntime()
	for _, w := range workloads {
		o := runOptions{spec: w.smoke(), seed: 7, seconds: 0.2, base: t.TempDir()}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		sameMetrics(t, w.name, res.Metrics, d.EndToEnd)

		res, err = runTraced(o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		sameMetrics(t, w.name+" traced", res.Metrics, d.PerLayer)
	}
}

// TestReleaseErrorIsTheSameOnEverySeed is what lets release_err_km carry
// a 0.5 % bound: it is measured on the residents, whose inputs leave the
// run seed out, and releases are a function of the inputs alone — so
// two runs on different seeds report it to the last digit, while what
// the measured phase released differs.
func TestReleaseErrorIsTheSameOnEverySeed(t *testing.T) {
	pinRuntime()
	spec, _ := findWorkload("unique-mid")
	var errs [2]metric
	for i, seed := range []int64{3, 4} {
		res, err := run(runOptions{spec: spec.smoke(), seed: seed, seconds: 0.1, base: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("seed %d: %d of %d operations failed", seed, res.Failed, res.Attempted)
		}
		errs[i] = res.Metrics["release_err_km"]
	}
	if errs[0] != errs[1] || errs[0].Value <= 0 {
		t.Errorf("release_err_km on seeds 3 and 4: %v and %v, want one positive value", errs[0], errs[1])
	}
}
