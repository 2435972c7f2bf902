package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
)

// tagOf is one certified release as a client sees it.
func tagOf(r api.StepResponse) api.ReleaseTag {
	return api.ReleaseTag{AlphaBits: math.Float64bits(r.Alpha), Obs: r.Obs}
}

// ops counts every operation and check of a run: each step, create,
// delete, recovery check and verify check counts once.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErrs         []string
}

// check records one operation; why describes it when it failed.
func (o *ops) check(ok bool, why func() string) {
	o.attempted.Add(1)
	if ok {
		return
	}
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.firstErrs) < 8 {
		o.firstErrs = append(o.firstErrs, why())
	}
	o.mu.Unlock()
}

func (o *ops) err(what string, err error) bool {
	o.check(err == nil, func() string { return fmt.Sprintf("%s: %v", what, err) })
	return err == nil
}

// generator drives one deployment with generated users.
type generator struct {
	in  *inputs
	d   *deployment
	ops *ops
	tr  *tracer // nil unless this is the traced phase

	// createNS and deleteNS total the time users spent opening and
	// closing sessions (reported next to the step numbers, never gated).
	createNS, deleteNS atomic.Int64

	// skipped counts generated candidates the warm-up pass did not keep.
	skipped int
	// panelErrKM is the mean distance between the true and the released
	// cell centre over every step the residents took while loading.
	panelErrKM float64
}

// runUser is one user: create the session, step the trajectory, delete
// (unless keep). onStep sees every served step and ends the user early
// by returning false. It returns the releases and whether the user ran
// to the end with every operation succeeding.
func (g *generator) runUser(ctx context.Context, c api.Client, id string, u user, keep bool, onStep func(t int, r api.StepResponse, end time.Time, lat time.Duration) bool) ([]api.ReleaseTag, bool) {
	userSpan := g.tr.begin("load.user", -1, id, -1)
	defer g.tr.end(userSpan)

	sp := g.tr.begin("rpc.create", userSpan, id, -1)
	start := time.Now()
	_, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: id, Seed: &u.seed})
	g.createNS.Add(int64(time.Since(start)))
	g.tr.end(sp)
	if !g.ops.err("create "+id, err) {
		return nil, false
	}
	ok := true
	tags := make([]api.ReleaseTag, 0, len(u.traj))
	for t, loc := range u.traj {
		sp := g.tr.begin("rpc.step", userSpan, id, t)
		start := time.Now()
		r, err := c.Step(ctx, id, loc)
		end := time.Now()
		g.tr.end(sp)
		if !g.ops.err("step "+id, err) {
			ok = false
			break
		}
		g.ops.check(r.T == t, func() string { return fmt.Sprintf("step %s: served t=%d, sent t=%d", id, r.T, t) })
		tags = append(tags, tagOf(r))
		if onStep != nil && !onStep(t, r, end, end.Sub(start)) {
			ok = false
			break
		}
	}
	if !keep {
		sp := g.tr.begin("rpc.delete", userSpan, id, -1)
		start := time.Now()
		err := c.DeleteSession(ctx, id)
		g.deleteNS.Add(int64(time.Since(start)))
		g.tr.end(sp)
		ok = g.ops.err("delete "+id, err) && ok
	}
	return tags, ok
}

// checkReplica holds a replica to the releases its pair produced the
// first time it ran, or to a prefix of them; a fresh pair has none.
func (g *generator) checkReplica(id string, want, tags []api.ReleaseTag) {
	if want == nil {
		return
	}
	g.ops.check(len(tags) <= len(want) && slices.Equal(tags, want[:len(tags)]), func() string {
		return fmt.Sprintf("replica %s released %v, the pair's first run released %v", id, tags, want)
	})
}

// warmPairs and warmPanel fill every backend's cert cache with the
// checks of the pairs the run replays — the distinct pairs of a replay
// workload, and the panel pairs the residents replicate — by running
// each once on each backend through the miss path. The first set-up of
// a run also chooses them: it takes candidates in generated order and
// keeps those whose second run, again on every backend, does not miss a
// cert cache. A candidate that still misses holds a verdict the cache
// refuses to store — the QP ran out of its node budget — which every
// later replica would solve again at full cost; how many of those a
// seed happens to draw is not what a replay workload measures. A
// candidate is dropped at the first step that reports a conservative
// rejection (one such verdict, told on the wire), so a seed that draws
// one does not also pay for the rest of its trajectory; the second run
// catches the undecided verdicts of candidates that were rejected for
// another reason as well. The first run of a kept pair is its reference
// release sequence.
func (g *generator) warmPairs(ctx context.Context) (err error) {
	g.in.pairs, err = g.warmStream(ctx, "pair", g.in.pairs, g.in.spec.distinct, g.in.spec.horizon)
	return err
}

func (g *generator) warmPanel(ctx context.Context) (err error) {
	g.in.panel, err = g.warmStream(ctx, panelStream, g.in.panel, g.in.spec.panelPairs, g.in.spec.residentSteps)
	return err
}

// warmStream runs the chosen pairs of a stream everywhere, or chooses
// want of them from the stream's candidates when none are chosen yet.
// Only the first steps locations of a trajectory are used.
func (g *generator) warmStream(ctx context.Context, stream string, chosen []pair, want, steps int) ([]pair, error) {
	serial := 0
	decided := func(_ int, r api.StepResponse, _ time.Time, _ time.Duration) bool {
		return r.ConservativeRejections == 0
	}
	// everywhere runs u once on each backend, through the front door: it
	// picks session ids the ring places there.
	everywhere := func(u user) ([]api.ReleaseTag, bool) {
		var first []api.ReleaseTag
		for b := range g.d.backends {
			id := g.in.warmID(stream, serial)
			for serial++; g.d.owner(id) != b; serial++ {
				id = g.in.warmID(stream, serial)
			}
			tags, ok := g.runUser(ctx, g.d.conn(0), id, u, false, decided)
			if !ok {
				return nil, false
			}
			if b == 0 {
				first = tags
			}
			g.ops.check(slices.Equal(tags, first), func() string {
				return fmt.Sprintf("%s released %v on backend %d, %v on backend 0", id, tags, b, first)
			})
		}
		return first, true
	}
	if len(chosen) > 0 {
		for _, p := range chosen {
			tags, ok := everywhere(p.user)
			if !ok {
				return nil, fmt.Errorf("a chosen %s pair no longer replays", stream)
			}
			g.checkReplica(stream, p.ref, tags)
		}
		return chosen, nil
	}
	for k := 0; len(chosen) < want; k++ {
		if k >= 4*want+8 {
			return nil, fmt.Errorf("only %d of the first %d candidates of stream %s are decided everywhere, want %d", len(chosen), k, stream, want)
		}
		u := g.in.generate(stream, k)
		u.traj = u.traj[:steps]
		ref, ok := everywhere(u)
		if !ok {
			g.skipped++
			continue
		}
		misses := g.cacheMisses()
		again, ok := everywhere(u)
		if !ok || g.cacheMisses() != misses {
			g.skipped++
			continue
		}
		g.checkReplica(fmt.Sprintf("second run of %s candidate %d", stream, k), ref, again)
		chosen = append(chosen, pair{user: u, ref: ref})
	}
	return chosen, nil
}

// cacheMisses sums the backends' cert-cache miss counters.
func (g *generator) cacheMisses() int64 {
	var n int64
	for _, st := range g.d.stats() {
		n += st.CertCache.Misses
	}
	return n
}

// loadResidents creates the resident population with the workload's
// clients and leaves it live. Every resident replicates a panel pair
// the warm-up ran on its backend, so loading is hit-path work.
func (g *generator) loadResidents(ctx context.Context) {
	spec := g.in.spec
	dist := make([]float64, spec.residents) // summed in index order below
	var next, loaded atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= spec.residents {
					return
				}
				id, p := g.in.residentID(r), g.in.resident(r)
				tags, ok := g.runUser(ctx, g.d.conn(c), id, p.user, true, func(t int, resp api.StepResponse, _ time.Time, _ time.Duration) bool {
					dist[r] += g.in.g.Dist(p.traj[t], resp.Obs)
					return true
				})
				if ok {
					loaded.Add(1)
					g.checkReplica(id, p.ref, tags)
				}
			}
		}()
	}
	wg.Wait()
	g.ops.check(int(loaded.Load()) == spec.residents, func() string {
		return fmt.Sprintf("%d of %d residents loaded: release_err_km would average another population", loaded.Load(), spec.residents)
	})
	var sum float64
	for _, d := range dist {
		sum += d
	}
	g.panelErrKM = sum / float64(spec.residents*spec.residentSteps)
}

// sample is one measured step: when it completed (since the phase
// began) and how long the client waited.
type sample struct {
	end, lat time.Duration
}

// loadWindows is the number of equal-time windows a measured phase is
// cut into; every rate and latency is reported from its quiet windows
// (quietWindow).
const loadWindows = 10

// loadResult is what one measured phase observed.
type loadResult struct {
	steps   int
	users   int
	wall    time.Duration
	samples []sample // in completion order
	// winSteps and winCPU are the steps completed and the process CPU
	// spent in each of the loadWindows windows of winLen.
	winSteps []int
	winCPU   []time.Duration
	winLen   time.Duration
	// createUS and deleteUS are the mean client-observed latencies of
	// opening and closing a session during the phase.
	createUS, deleteUS float64
	// cpuErr is the first failure to read the CPU clock, if any.
	cpuErr error
	// firstTags are the releases of the phase's first user, for the
	// oracle check; nil if it did not run to its end.
	firstTags []api.ReleaseTag
	// errKM is the mean distance between true and released cell centres
	// over the steps of every user that ran to its end.
	errKM float64
}

// stepsPerSec is the step rate of the phase's quiet windows.
func (r loadResult) stepsPerSec() float64 {
	rates := make([]float64, len(r.winSteps))
	for i, n := range r.winSteps {
		rates[i] = float64(n) / r.winLen.Seconds()
	}
	return quietWindow(rates, true)
}

// cpuMSPerStep is the process CPU (user+system, all of it: clients,
// transport, engine, runtime) per step completed, in the phase's quiet
// windows.
func (r loadResult) cpuMSPerStep() float64 {
	var per []float64
	for i, n := range r.winSteps {
		if n > 0 {
			per = append(per, float64(r.winCPU[i])/float64(time.Millisecond)/float64(n))
		}
	}
	return quietWindow(per, false)
}

// latencyMS is the p-quantile of the client-observed step latency in
// the phase's quiet windows (equal-count windows in completion order).
func (r loadResult) latencyMS(p float64) float64 {
	return quietWindow(windowQuantiles(r.latenciesMS(), loadWindows, p), false)
}

// latenciesMS returns the step latencies in completion order.
func (r loadResult) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

// measure runs the closed loop for d: each client takes the next user
// index, runs that user to completion and repeats until the time is up;
// a user in flight at the deadline finishes. firstUser offsets the
// indices so that two phases of one run never reuse a session id or,
// on a workload of fresh users, an input.
func (g *generator) measure(ctx context.Context, d time.Duration, firstUser int) loadResult {
	spec := g.in.spec
	// A client stores its samples in fixed chunks that are never copied,
	// so recording them leaves no garbage behind to move the heap peak.
	const chunk = 1 << 14
	type clientRec struct {
		chunks [][]sample
		users  int
		dist   float64 // summed over the users that ran to their end
	}
	recs := make([]clientRec, spec.clients)

	var next atomic.Int64
	var wg sync.WaitGroup
	create0, delete0 := g.createNS.Load(), g.deleteNS.Load()
	res := loadResult{winLen: d / loadWindows}
	var served atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	// The monitor reads the step count and the CPU clock at every window
	// boundary; users still in flight at the deadline finish outside the
	// windows (their steps count in steps and samples only).
	monitored := make(chan struct{})
	go func() {
		defer close(monitored)
		steps0 := int64(0)
		cpu0, err := cpuTime()
		res.cpuErr = err
		for w := 1; w <= loadWindows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * res.winLen)))
			steps1 := served.Load()
			cpu1, err := cpuTime()
			if err != nil && res.cpuErr == nil {
				res.cpuErr = err
			}
			res.winSteps = append(res.winSteps, int(steps1-steps0))
			res.winCPU = append(res.winCPU, cpu1-cpu0)
			steps0, cpu0 = steps1, cpu1
		}
	}()
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recs[c]
			for time.Now().Before(deadline) {
				n := int(next.Add(1)) - 1
				u := g.in.measured(firstUser + n)
				var dist float64
				id := g.in.measuredID(firstUser + n)
				tags, ok := g.runUser(ctx, g.d.conn(c), id, u, false, func(t int, r api.StepResponse, end time.Time, lat time.Duration) bool {
					if k := len(rec.chunks); k == 0 || len(rec.chunks[k-1]) == chunk {
						rec.chunks = append(rec.chunks, make([]sample, 0, chunk))
					}
					last := &rec.chunks[len(rec.chunks)-1]
					*last = append(*last, sample{end: end.Sub(start), lat: lat})
					served.Add(1)
					dist += g.in.g.Dist(u.traj[t], r.Obs)
					return true
				})
				if !ok {
					continue
				}
				rec.users++
				rec.dist += dist
				if n == 0 {
					res.firstTags = tags // read after wg.Wait
				}
				g.checkReplica(id, g.in.measuredRef(firstUser+n), tags)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	<-monitored
	var dist float64
	for _, rec := range recs {
		for _, c := range rec.chunks {
			res.samples = append(res.samples, c...)
		}
		res.users += rec.users
		dist += rec.dist
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].end < res.samples[j].end })
	res.steps = len(res.samples)
	res.createUS = float64(g.createNS.Load()-create0) / 1e3 / float64(max(res.users, 1))
	res.deleteUS = float64(g.deleteNS.Load()-delete0) / 1e3 / float64(max(res.users, 1))
	res.errKM = dist / float64(max(res.users, 1)*spec.horizon)
	return res
}
