package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOptions is one invocation.
type runOptions struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	// base is the directory the stores (and the span file) live under;
	// it must be on a real disk for fsync to cost what it costs.
	base string
}

// site is a freshly set-up service: deployed, warmed, residents loaded.
type site struct {
	root string
	d    *deployment
	g    *generator
	// took is what setting the service up cost: stores, servers,
	// listeners, the panel's warm-up, the resident load, a collection.
	// warmup is what filling the caches with the run's seeded pairs cost
	// on top, and is not in took (see setUp).
	took, warmup time.Duration
}

// setUp builds the workload's service from nothing and brings it to the
// state the measured phase starts from. Everything it times into took is
// the same work in every run — the panel does not depend on the seed —
// so setup_s compares between seeds. The warm-up of a replay workload's
// own pairs is not: it is miss-path QP work whose cost is a property of
// the pairs the seed drew (1 to 6 s for the same count of steps on
// replay-small), it is what unique-mid measures in steady state, and it
// is timed apart. A set-up that is only timed (measured false) leaves it
// out altogether.
func setUp(ctx context.Context, o runOptions, in *inputs, counts *ops, measured bool) (*site, error) {
	start := time.Now()
	root, err := freshRoot(o.base)
	if err != nil {
		return nil, err
	}
	d, err := deploy(o.spec, root, false)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	g := &generator{in: in, d: d, ops: counts}
	fail := func(err error) (*site, error) {
		d.close()
		os.RemoveAll(root)
		return nil, err
	}
	var warmup time.Duration
	if measured {
		t := time.Now()
		if err := g.warmPairs(ctx); err != nil {
			return fail(err)
		}
		warmup = time.Since(t)
	}
	if err := g.warmPanel(ctx); err != nil {
		return fail(err)
	}
	g.loadResidents(ctx)
	runtime.GC()
	return &site{root: root, d: d, g: g, took: time.Since(start) - warmup, warmup: warmup}, nil
}

// removeSettled removes a deployment's directory and commits the
// unlinks (see settleFS).
func removeSettled(root string) {
	os.RemoveAll(root)
	settleFS()
}

// recoverOnce reopens every store and rebuilds every server over it —
// no listeners, no router: a session is live again when server.New has
// replayed its journal — and returns the backends and how long that
// took.
func recoverOnce(spec workloadSpec, root string) ([]*backend, time.Duration, error) {
	var backends []*backend
	start := time.Now()
	for i := 0; i < spec.backends(); i++ {
		b, err := openBackend(spec, fmt.Sprintf("backend-%d", i), backendDir(root, i), false)
		if err != nil {
			for _, b := range backends {
				b.srv.Close()
			}
			return nil, 0, err
		}
		backends = append(backends, b)
	}
	return backends, time.Since(start), nil
}

// run executes the gated (untraced) protocol of one workload: set-up,
// measured phase, recovery cycles, verification, and then the remaining
// set-ups. The measured phase follows the first set-up of a fresh
// process, so its heap and the filesystem under it have seen nothing
// but that set-up; the set-ups that are only timed come last.
func run(o runOptions) (result, error) {
	ctx := context.Background()
	in, err := newInputs(o.spec, o.seed)
	if err != nil {
		return result{}, err
	}
	counts := &ops{}
	settleFS() // whatever ran here before is not this run's to pay for
	s, err := setUp(ctx, o, in, counts, true)
	if err != nil {
		return result{}, err
	}
	setupTimes := []float64{s.took.Seconds()}

	// peak_rss_mb is the high-water mark of the measured phase alone:
	// the set-up's miss-path solves and the later recovery and
	// verification are not the service under load.
	debug.FreeOSMemory()
	_ = resetPeakRSS() // a refusal is in the environment block, with a warning
	misses := s.g.cacheMisses()
	load := s.g.measure(ctx, time.Duration(o.seconds*float64(time.Second)), 0)
	rss, err := peakRSSMB()
	counts.err("read VmHWM", err)
	counts.err("read the CPU clock", load.cpuErr)
	if o.spec.distinct > 0 {
		// A replay workload is one only while its checks come from the
		// cache; a miss would be a QP solve inside the measured phase.
		missed := s.g.cacheMisses() - misses
		counts.check(missed == 0, func() string {
			return fmt.Sprintf("%d cert-cache misses during the measured phase of a replay workload", missed)
		})
	}

	before, err := liveStates(ctx, s.d.backends)
	s.d.close()
	if err != nil {
		removeSettled(s.root)
		return result{}, err
	}
	var recoverTimes []float64
	for cycle := 0; cycle < o.spec.recovers; cycle++ {
		// Every cycle starts from a collected heap: the servers of the
		// cycle before are garbage, and when the collector gets to them
		// is not part of a restart.
		debug.FreeOSMemory()
		backends, took, err := recoverOnce(o.spec, s.root)
		if err != nil {
			removeSettled(s.root)
			return result{}, err
		}
		recoverTimes = append(recoverTimes, took.Seconds())
		after, err := liveStates(ctx, backends)
		if err == nil {
			checkRecovered(counts, cycle, before, after, backends)
		}
		for _, b := range backends {
			b.srv.Close()
		}
		if err != nil {
			removeSettled(s.root)
			return result{}, err
		}
	}
	removeSettled(s.root)

	e := newEngine(in)
	if err := checkOracle(e, counts, before, load.firstTags); err != nil {
		return result{}, err
	}
	if err := checkLoss(e, counts, before); err != nil {
		return result{}, err
	}
	counts.check(len(before) == o.spec.residents, func() string {
		return fmt.Sprintf("%d sessions live after the measured phase, want the %d residents", len(before), o.spec.residents)
	})
	counts.check(load.steps > 0, func() string { return "the measured phase served no step" })
	errKM := s.g.panelErrKM

	for len(setupTimes) < o.spec.setups {
		debug.FreeOSMemory()
		s, err := setUp(ctx, o, in, counts, false)
		if err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, s.took.Seconds())
		counts.check(s.g.panelErrKM == errKM, func() string {
			return fmt.Sprintf("the residents' release error was %v km in the first set-up and %v km in a later one", errKM, s.g.panelErrKM)
		})
		s.d.close()
		removeSettled(s.root)
	}

	res := result{
		Attempted: counts.attempted.Load(),
		Failed:    counts.failed.Load(),
		Metrics: map[string]metric{
			"steps_per_s":     {load.stepsPerSec(), "1/s"},
			"step_p50_ms":     {load.latencyMS(0.5), "ms"},
			"cpu_ms_per_step": {load.cpuMSPerStep(), "ms"},
			"peak_rss_mb":     {rss, "MB"},
			"release_err_km":  {errKM, "km"},
			"recover_s":       {slices.Min(recoverTimes), "s"},
			"setup_s":         {median(setupTimes), "s"},
		},
	}
	res.Correct = res.Failed == 0
	for _, msg := range counts.firstErrs {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	fmt.Printf("measured: %d steps (%d latency samples) by %d users in %.3fs, quiet-window p95 %.4g ms, create %.0f us and delete %.0f us a user, release error %.4f km\n",
		load.steps, len(load.samples), load.users, load.wall.Seconds(), load.latencyMS(0.95), load.createUS, load.deleteUS, load.errKM)
	fmt.Printf("window steps: %v\n", load.winSteps)
	fmt.Printf("set-ups %.3f s, warm-up of the seeded pairs %.3f s apart (%d candidate inputs dropped); recoveries %.3f s\n",
		setupTimes, s.warmup.Seconds(), s.g.skipped, recoverTimes)
	return res, nil
}
