package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/par"
	"priste/internal/qp"
	"priste/internal/ring"
	"priste/internal/router"
	"priste/internal/rpc"
	"priste/internal/server"
	"priste/internal/store"
	"priste/internal/world"
)

// counters is the sum over the backends of the layer counters the
// traced run reads before and after its load phases.
type counters struct {
	hits, misses, entries, evictions    int64
	appends, appendBytes, fsyncs, snaps int64
	served, rejections, requeues        int64
	queueWaitN                          int64
	queueWaitUS                         float64
	pool                                par.Stats
}

func readCounters(d *deployment) counters {
	var c counters
	for _, st := range d.stats() {
		c.hits += st.CertCache.Hits
		c.misses += st.CertCache.Misses
		c.entries += st.CertCache.Entries
		c.evictions += st.CertCache.Evictions
		c.appends += st.Store.Appends
		c.appendBytes += st.Store.AppendBytes
		c.fsyncs += st.Store.Fsyncs
		c.snaps += st.Store.Snapshots
		c.served += st.Steps.Served
		c.rejections += st.Steps.QueueRejections
		c.requeues += st.Scheduler.Requeues
		for _, tr := range []api.TransportStats{st.Transports.HTTP, st.Transports.RPC, st.Transports.Local} {
			qw := tr.Stages["queue_wait"]
			c.queueWaitN += qw.Count
			c.queueWaitUS += float64(qw.Count) * qw.MeanMicros
		}
	}
	c.pool = par.Default().Stats()
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeMS runs f reps times and returns the median duration in ms.
func timeMS(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(ts)
}

// perOp runs f n times and returns the mean duration of one call in ns.
func perOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// traceUser is the n-th user the rungs replay: pair n on a replay
// workload, a user of a stream the measured phases never draw from
// otherwise.
func (in *inputs) traceUser(n int) user {
	if len(in.pairs) > 0 {
		return in.pairs[n%len(in.pairs)].user
	}
	return in.generate("trace", n)
}

// rungs replays the traced users through one layer boundary after the
// other, a span around every call.
type rungs struct {
	o      runOptions
	in     *inputs
	d      *deployment
	e      *engine
	tr     *tracer
	counts *ops
	m      map[string]metric

	// want[n] is what the service released for traced user n over plain
	// unary RPC; every other rung must release the same.
	want [][]api.ReleaseTag
}

func (r *rungs) set(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

// stepper is one way of getting a step served.
type stepper struct {
	create func(id string, seed int64) error
	step   func(id string, loc int) (api.StepResponse, error)
	delete func(id string) error
}

func clientStepper(ctx context.Context, c api.Client) stepper {
	return stepper{
		create: func(id string, seed int64) error {
			_, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: id, Seed: &seed})
			return err
		},
		step:   func(id string, loc int) (api.StepResponse, error) { return c.Step(ctx, id, loc) },
		delete: func(id string) error { return c.DeleteSession(ctx, id) },
	}
}

func serviceStepper(ctx context.Context, s api.Service) stepper {
	return stepper{
		create: func(id string, seed int64) error {
			_, err := s.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed})
			return err
		},
		step:   func(id string, loc int) (api.StepResponse, error) { return s.Step(ctx, id, loc) },
		delete: s.DeleteSession,
	}
}

// replay runs every traced user through st, one after the other.
func (r *rungs) replay(name string, st stepper) {
	for n := 0; n < r.o.spec.traceUsers; n++ {
		r.replayUser(name, st, n)
	}
}

// replayUser runs traced user n through st under spans named
// rung.<name>.{create,step,delete} and holds the releases to want.
func (r *rungs) replayUser(name string, st stepper, n int) {
	u := r.in.traceUser(n)
	id := fmt.Sprintf("%s-rung-%s-%d", r.o.spec.name, name, n)
	sp := r.tr.begin("rung."+name+".create", -1, id, -1)
	err := st.create(id, u.seed)
	r.tr.end(sp)
	if !r.counts.err("rung "+name+" create", err) {
		return
	}
	tags := make([]api.ReleaseTag, 0, len(u.traj))
	for t, loc := range u.traj {
		sp := r.tr.begin("rung."+name+".step", -1, id, t)
		resp, err := st.step(id, loc)
		r.tr.end(sp)
		if !r.counts.err("rung "+name+" step", err) {
			break
		}
		tags = append(tags, tagOf(resp))
	}
	sp = r.tr.begin("rung."+name+".delete", -1, id, -1)
	err = st.delete(id)
	r.tr.end(sp)
	r.counts.err("rung "+name+" delete", err)
	r.sameAsService(name, n, tags)
}

func (r *rungs) sameAsService(name string, n int, tags []api.ReleaseTag) {
	if r.want[n] == nil {
		r.want[n] = tags
		return
	}
	r.counts.check(slices.Equal(tags, r.want[n]), func() string {
		return fmt.Sprintf("rung %s, traced user %d released %v, the service released %v", name, n, tags, r.want[n])
	})
}

// service runs the rungs that go through the deployed service. The
// first pass (untimed, "warm") puts every traced user's checks in the
// cert cache, so that all timed rungs do identical, hit-path engine work
// and their differences are the cost of the layers between them. The
// unary rungs are interleaved user by user — direct RPC, in process,
// routed, then the next user — so that a drift of the machine over
// seconds falls on all three alike.
func (r *rungs) service(ctx context.Context) error {
	direct, err := rpc.Dial(r.d.backends[0].addr)
	if err != nil {
		return err
	}
	defer direct.Close()
	// Routed: through a router and its RPC front-end — the deployment's
	// own on the fleet workload, a one-backend router built for the rung
	// elsewhere.
	routed, closeRouted, err := r.routedConn()
	if err != nil {
		return err
	}
	defer closeRouted()

	r.replay("warm", clientStepper(ctx, direct))
	rpcSt, serverSt, routerSt := clientStepper(ctx, direct), serviceStepper(ctx, r.d.backends[0].srv), clientStepper(ctx, routed)
	for n := 0; n < r.o.spec.traceUsers; n++ {
		r.replayUser("rpc", rpcSt, n)
		r.replayUser("server", serverSt, n)
		r.replayUser("router", routerSt, n)
	}
	if err := r.stream(ctx, direct); err != nil {
		return err
	}
	return r.http(ctx)
}

func (r *rungs) routedConn() (*rpc.Client, func(), error) {
	if r.d.rt != nil {
		return r.d.conn(0), func() {}, nil
	}
	back, err := rpc.Dial(r.d.backends[0].addr)
	if err != nil {
		return nil, nil, err
	}
	rt, err := router.New(router.Config{
		ProbeInterval: -1,
		Backends:      []router.Backend{{Name: r.d.backends[0].name, Client: back}},
	})
	if err != nil {
		back.Close()
		return nil, nil, err
	}
	front, addr, err := serve(rt)
	if err != nil {
		rt.Shutdown()
		back.Close()
		return nil, nil, err
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		front.Close()
		rt.Shutdown()
		back.Close()
		return nil, nil, err
	}
	return c, func() {
		r.routeStats(rt)
		c.Close()
		front.Close()
		rt.Shutdown()
		back.Close()
	}, nil
}

// routeStats reports the router's own counters.
func (r *rungs) routeStats(rt *router.Router) {
	fleet := rt.Stats().Fleet
	if fleet == nil {
		return
	}
	var total, most int64
	for _, mem := range fleet.Members {
		total += mem.Routes
		most = max(most, mem.Routes)
	}
	r.set("router.misroute_retries", float64(fleet.MisrouteRetries), "count")
	r.set("router.route_skew", ratio(float64(most)*float64(len(fleet.Members)), float64(total)), "frac")
}

// stream pushes each traced user through one windowed RPC step stream.
func (r *rungs) stream(ctx context.Context, c *rpc.Client) error {
	st := clientStepper(ctx, c)
	for n := 0; n < r.o.spec.traceUsers; n++ {
		u := r.in.traceUser(n)
		id := fmt.Sprintf("%s-rung-stream-%d", r.o.spec.name, n)
		if !r.counts.err("rung stream create", st.create(id, u.seed)) {
			continue
		}
		sp := r.tr.begin("rung.stream.user", -1, id, -1)
		s, err := c.StreamSteps(ctx, id, len(u.traj))
		if err != nil {
			return err
		}
		for _, loc := range u.traj {
			if err := s.Send(loc); err != nil {
				return err
			}
		}
		if err := s.CloseSend(); err != nil {
			return err
		}
		var tags []api.ReleaseTag
		for {
			resp, err := s.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			tags = append(tags, tagOf(resp))
		}
		s.Close()
		r.tr.end(sp)
		r.counts.err("rung stream delete", st.delete(id))
		r.sameAsService("stream", n, tags)
	}
	return nil
}

// http serves the edge service's HTTP codec on loopback and replays the
// traced users over it, unary and then as cross-session batches.
func (r *rungs) http(ctx context.Context) error {
	var handler http.Handler = r.d.backends[0].srv.Handler()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() { _ = hs.Serve(lis); close(served) }()
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	hc := server.NewClient("http://"+lis.Addr().String(), &http.Client{Transport: transport})
	defer func() {
		transport.CloseIdleConnections()
		_ = hs.Close()
		<-served
	}()

	r.replay("http", clientStepper(ctx, hc))

	// Batch: all traced users live at once, one StepBatch per timestamp.
	spec := r.o.spec
	st := clientStepper(ctx, hc)
	users := make([]user, spec.traceUsers)
	tags := make([][]api.ReleaseTag, spec.traceUsers)
	ids := make([]string, spec.traceUsers)
	for n := range users {
		users[n] = r.in.traceUser(n)
		ids[n] = fmt.Sprintf("%s-rung-batch-%d", spec.name, n)
		if err := st.create(ids[n], users[n].seed); err != nil {
			return err
		}
	}
	for t := 0; t < spec.horizon; t++ {
		items := make([]api.BatchStepItem, len(users))
		for n := range users {
			items[n] = api.BatchStepItem{SessionID: ids[n], Loc: users[n].traj[t]}
		}
		sp := r.tr.begin("rung.batch.call", -1, "", t)
		resps, err := hc.StepBatch(ctx, items)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		for n, resp := range resps {
			if r.counts.err("rung batch step", resp.Err()) {
				tags[n] = append(tags[n], tagOf(resp))
			}
		}
	}
	for n := range users {
		r.counts.err("rung batch delete", st.delete(ids[n]))
		r.sameAsService("batch", n, tags[n])
	}
	return nil
}

// engineRungs replays the traced users below the service: bare
// core.Framework.Step over a plan of the harness's own with a cold and
// then a warm cert cache, and the harness-side Algorithm 1.
func (r *rungs) engineRungs() (algo1Counts, error) {
	var total algo1Counts
	plan, err := r.e.plan(world.KernelAuto, certcache.New(server.DefaultCertCacheSize))
	if err != nil {
		return total, err
	}
	// Fill the mechanism's emission table for the whole halving ladder
	// first: the rungs share one mechanism, and whichever ran first would
	// otherwise pay for every matrix the others then find cached.
	for a := r.e.cfg.Alpha; a >= r.e.cfg.Alpha*math.Pow(2, -30); a *= 0.5 {
		if _, err := r.e.mech.Emission(a); err != nil {
			return total, err
		}
	}
	md, err := world.NewModelWithOptions(r.e.tp, r.in.ev, world.ModelOptions{})
	if err != nil {
		return total, err
	}
	bare := func(pass string, n int) error {
		u := r.in.traceUser(n)
		id := fmt.Sprintf("%s-rung-%s-%d", r.o.spec.name, pass, n)
		fw, err := plan.NewSession(core.NewSessionRNG(u.seed))
		if err != nil {
			return err
		}
		tags := make([]api.ReleaseTag, 0, len(u.traj))
		for t, loc := range u.traj {
			sp := r.tr.begin("rung."+pass+".step", -1, id, t)
			res, err := fw.Step(loc)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			tags = append(tags, api.ReleaseTag{AlphaBits: math.Float64bits(res.Alpha), Obs: res.Obs})
		}
		r.sameAsService(pass, n, tags)
		return nil
	}
	// The cold engine pass and the harness-side Algorithm 1 solve the same
	// QP instances; they run back to back per user so that their
	// difference (core.self_us) is not a difference between two moments of
	// the machine. The warm pass follows once every user is cached.
	runtime.GC()
	for n := 0; n < r.o.spec.traceUsers; n++ {
		if err := bare("core_miss", n); err != nil {
			return total, err
		}
		id := fmt.Sprintf("%s-rung-algo1-%d", r.o.spec.name, n)
		tags, c, err := r.e.algo1(r.tr, md, id, r.in.traceUser(n))
		if err != nil {
			return total, err
		}
		total.add(c)
		r.sameAsService("algo1", n, tags)
	}
	for n := 0; n < r.o.spec.traceUsers; n++ {
		if err := bare("core_hit", n); err != nil {
			return total, err
		}
	}
	return total, nil
}

// micro times single layer operations on the workload's own world.
func (r *rungs) micro() error {
	spec := r.o.spec
	cfg := spec.serverConfig()
	m := r.in.g.States()

	r.set("markov.chain_build_ms", timeMS(3, func() { _, _ = markov.GaussianChain(r.in.g, cfg.Sigma) }), "ms")
	r.set("world.model_build_ms", timeMS(3, func() { _, _ = world.NewModelWithOptions(r.e.tp, r.in.ev, world.ModelOptions{}) }), "ms")
	r.set("core.plan_build_ms", timeMS(3, func() { _, _ = r.e.plan(world.KernelAuto, nil) }), "ms")

	// One operator product and one kernel matvec on the transition
	// matrix, through the blocked kernel the dense path dispatches a
	// full-band operator to. The operator is M², which is dense.
	M := r.in.chain.Matrix()
	Mt := M.Transpose()
	A, dst := mat.NewMatrix(m, m), mat.NewMatrix(m, m)
	mat.MulInto(A, M, M)
	reps := max(3, 4_000_000/(m*m*m)+1)
	r.set("mat.mul_ms", perOp(reps, func(int) { mat.MulABtInto(dst, A, Mt) })/1e6, "ms")
	r.set("mat.mul_flops", float64(m)*float64(m)*float64(m), "flops")
	x, y := mat.NewVector(m), mat.NewVector(m)
	for i := range x {
		x[i] = 1 / float64(m)
	}
	r.set("mat.matvec_us", perOp(max(100, 20_000_000/(m*m)), func(int) { M.MulVecInto(y, x) })/1e3, "us")

	// Cert cache: put then get distinct keys in a cache of the daemon's
	// default capacity.
	const keys = 1 << 15
	cache := certcache.New(server.DefaultCertCacheSize)
	dec := qp.ReleaseDecision{OK: true}
	key := func(i int) certcache.Key {
		return certcache.Key{Plan: 1, T: i & 7, History: uint64(i) * 0x9e3779b97f4a7c15, Obs: i % m}
	}
	r.set("certcache.put_ns", perOp(keys, func(i int) { cache.Put(key(i), dec) }), "ns")
	r.set("certcache.get_ns", perOp(keys, func(i int) { cache.Get(key(i)) }), "ns")

	// Ring: ownership lookups, and the share of keys a fourth member
	// takes from a ring of three.
	three := ring.New(0, "backend-0", "backend-1", "backend-2")
	four := ring.New(0, "backend-0", "backend-1", "backend-2", "backend-3")
	ids := make([]string, 4096)
	for i := range ids {
		ids[i] = r.in.measuredID(i)
	}
	r.set("ring.owner_ns", perOp(1<<16, func(i int) { three.Owner(ids[i%len(ids)]) }), "ns")
	moved := 0
	for _, id := range ids {
		a, _ := three.Owner(id)
		b, _ := four.Owner(id)
		if a != b {
			moved++
		}
	}
	r.set("ring.moved_frac", float64(moved)/float64(len(ids)), "frac")

	// Store: appends to one session's WAL, without and with fsync.
	for _, fsync := range []bool{false, true} {
		dir, err := freshRoot(r.o.base)
		if err != nil {
			return err
		}
		us, err := appendCost(dir, fsync)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if fsync {
			r.set("store.append_fsync_us", us, "us")
		} else {
			r.set("store.append_us", us, "us")
		}
	}
	return nil
}

func appendCost(dir string, fsync bool) (float64, error) {
	st, err := store.Open(dir, fsync)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	gen, err := st.CreateSession(store.SessionMeta{ID: "append-cost"})
	if err != nil {
		return 0, err
	}
	n := 4096
	if fsync {
		n = 256
	}
	rec := store.StepRecord{RNG: make([]byte, 16)}
	var failed error
	ns := perOp(n, func(i int) {
		rec.T = i
		if err := st.AppendStep("append-cost", gen, rec); err != nil {
			failed = err
		}
	})
	return ns / 1e3, failed
}

// fsyncPhase runs one load phase on a second deployment of the workload
// whose stores fsync every append, the way a production daemon is
// started (-fsync). No gated run does: on the contract box identical
// runs of it are 12 % apart (README.md), so what fsync costs is reported
// here, per layer, with the count a group commit would move.
func (r *rungs) fsyncPhase(ctx context.Context, phase time.Duration) error {
	root, err := freshRoot(r.o.base)
	if err != nil {
		return err
	}
	defer removeSettled(root)
	d, err := deploy(r.o.spec, root, true)
	if err != nil {
		return err
	}
	defer d.close()
	g := &generator{in: r.in, d: d, ops: r.counts}
	if _, err := g.warmStream(ctx, "pair", r.in.pairs, r.o.spec.distinct, r.o.spec.horizon); err != nil {
		return err
	}
	c0 := readCounters(d)
	load := g.measure(ctx, phase, 2<<30)
	c1 := readCounters(d)
	r.set("load.fsync_steps_per_s", load.stepsPerSec(), "1/s")
	r.set("store.fsyncs_per_step", ratio(float64(c1.fsyncs-c0.fsyncs), float64(load.steps)), "count")
	return nil
}

// recovery closes the deployment and times what a restart is made of:
// the store load alone, then Plan.Restore of every resident history.
func (r *rungs) recovery(before map[string]api.SessionExport, root string) error {
	var loadMS float64
	var failures int64
	for i := 0; i < r.o.spec.backends(); i++ {
		start := time.Now()
		st, err := store.Open(backendDir(root, i), false)
		if err != nil {
			return err
		}
		states, err := st.LoadSessions()
		loadMS += float64(time.Since(start)) / float64(time.Millisecond)
		failures += st.Stats().LoadFailures
		st.Close()
		if err != nil {
			return err
		}
		r.counts.check(len(states) > 0 || r.o.spec.fleet, func() string { return "store load returned no session" })
	}
	r.set("store.load_ms", loadMS, "ms")
	r.set("store.load_failures", float64(failures), "count")

	plan, err := r.e.plan(world.KernelAuto, nil)
	if err != nil {
		return err
	}
	var steps int
	var took time.Duration
	for id, st := range before {
		snap := core.Snapshot{T: st.T, Fingerprint: st.Fingerprint, RNG: st.RNG, Tags: make([]core.ReleaseTag, len(st.Tags))}
		for i, tg := range st.Tags {
			snap.Tags[i] = core.ReleaseTag{AlphaBits: tg.AlphaBits, Obs: tg.Obs}
		}
		start := time.Now()
		_, err := plan.Restore(snap, core.NewSessionRNG(st.Seed))
		took += time.Since(start)
		steps += st.T
		r.counts.err("restore "+id, err)
	}
	r.set("core.restore_us_per_step", ratio(float64(took)/1e3, float64(steps)), "us")
	return nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTraced executes the traced protocol: one set-up, an untraced and a
// traced load phase of a quarter of the run length each (their ratio is
// the tracing overhead), then the rungs, the single-operation timings
// and a dissected recovery. It reports the per-layer metrics only; the
// end-to-end numbers always come from untraced runs.
func runTraced(o runOptions) (result, error) {
	ctx := context.Background()
	in, err := newInputs(o.spec, o.seed)
	if err != nil {
		return result{}, err
	}
	counts := &ops{}
	r := &rungs{o: o, in: in, e: newEngine(in), tr: newTracer(), counts: counts,
		m: make(map[string]metric), want: make([][]api.ReleaseTag, o.spec.traceUsers)}

	settleFS()
	root, err := freshRoot(o.base)
	if err != nil {
		return result{}, err
	}
	defer removeSettled(root)
	d, err := deploy(o.spec, root, false)
	if err != nil {
		return result{}, err
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	r.d = d
	g := &generator{in: in, d: d, ops: counts}
	if err := g.warmPairs(ctx); err != nil {
		return result{}, err
	}
	if err := g.warmPanel(ctx); err != nil {
		return result{}, err
	}
	heap0 := heapAlloc()
	g.loadResidents(ctx)
	heap1 := heapAlloc()
	r.set("server.heap_kb_per_session", ratio(float64(heap1)-float64(heap0), float64(o.spec.residents))/1024, "kB")

	phase := time.Duration(o.seconds / 4 * float64(time.Second))
	c0 := readCounters(d)
	plain := g.measure(ctx, phase, 0)
	g.tr = r.tr
	traced := g.measure(ctx, phase, 1<<30)
	g.tr = nil
	c1 := readCounters(d)
	steps := float64(plain.steps + traced.steps)

	lat := sortedCopy(plain.latenciesMS())
	r.set("load.steps_per_s", plain.stepsPerSec(), "1/s")
	r.set("load.step_p95_ms", plain.latencyMS(0.95), "ms")
	r.set("load.step_p99_ms", percentile(lat, 0.99), "ms")
	r.set("load.step_max_ms", percentile(lat, 1), "ms")
	r.set("load.release_err_km", plain.errKM, "km")
	r.set("trace.overhead_frac", 1-ratio(traced.stepsPerSec(), plain.stepsPerSec()), "frac")

	r.set("par.parallel_dispatch", float64(c1.pool.ParallelDispatch-c0.pool.ParallelDispatch), "count")
	r.set("par.serial_dispatch", float64(c1.pool.SerialDispatch-c0.pool.SerialDispatch), "count")
	r.set("par.steals", float64(c1.pool.Steals-c0.pool.Steals), "count")
	r.set("certcache.hit_frac", ratio(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses)), "frac")
	r.set("certcache.entries", float64(c1.entries), "count")
	r.set("certcache.evictions", float64(c1.evictions), "count")
	r.set("store.bytes_per_step", ratio(float64(c1.appendBytes-c0.appendBytes), float64(c1.appends-c0.appends)), "B")
	r.set("store.snapshots", float64(c1.snaps), "count")
	r.set("server.queue_wait_us", ratio(c1.queueWaitUS-c0.queueWaitUS, float64(c1.queueWaitN-c0.queueWaitN)), "us")
	r.set("server.queue_rejections", float64(c1.rejections), "count")
	r.set("server.requeues", float64(c1.requeues), "count")
	counts.check(float64(c1.served-c0.served) == steps, func() string {
		return fmt.Sprintf("the servers count %d steps served, the clients %g", c1.served-c0.served, steps)
	})

	if err := r.service(ctx); err != nil {
		return result{}, err
	}
	if d.rt != nil {
		r.routeStats(d.rt)
	}
	algo, err := r.engineRungs()
	if err != nil {
		return result{}, err
	}
	if err := r.micro(); err != nil {
		return result{}, err
	}
	if err := r.fsyncPhase(ctx, phase); err != nil {
		return result{}, err
	}
	before, err := liveStates(ctx, d.backends)
	if err != nil {
		return result{}, err
	}
	d.close()
	closed = true
	if err := r.recovery(before, root); err != nil {
		return result{}, err
	}

	spans := r.tr.snapshot()
	sum := summarize(spans)
	us := func(name string) float64 { return sum[name].meanUS() }
	perStep := func(name string) float64 { return ratio(float64(sum[name].total)/1e3, float64(algo.steps)) }
	r.set("rpc.step_us", us("rung.rpc.step"), "us")
	r.set("server.step_us", us("rung.server.step"), "us")
	r.set("server.create_us", us("rung.server.create"), "us")
	r.set("server.delete_us", us("rung.server.delete"), "us")
	r.set("router.step_us", us("rung.router.step"), "us")
	r.set("http.step_us", us("rung.http.step"), "us")
	r.set("rpc.stream_step_us", us("rung.stream.user")/float64(o.spec.horizon), "us")
	r.set("http.batch_step_us", us("rung.batch.call")/float64(o.spec.traceUsers), "us")
	r.set("core.hit_step_us", us("rung.core_hit.step"), "us")
	r.set("core.miss_step_us", us("rung.core_miss.step"), "us")
	// The engine ceiling for this workload: bare Framework.Step on the
	// path its steps take — cache hits when users are replayed, misses
	// when every user is fresh.
	if o.spec.distinct > 0 {
		r.set("core.step_us", us("rung.core_hit.step"), "us")
	} else {
		r.set("core.step_us", us("rung.core_miss.step"), "us")
	}
	r.set("rpc.self_us", us("rung.rpc.step")-us("rung.server.step"), "us")
	r.set("server.self_us", us("rung.server.step")-us("rung.core_hit.step"), "us")
	r.set("router.hop_us", us("rung.router.step")-us("rung.rpc.step"), "us")

	children := sum["algo1.step"].childTotal
	r.set("core.self_us", us("rung.core_miss.step")-ratio(float64(children)/1e3, float64(algo.steps)), "us")
	r.set("trace.coverage_frac", ratio(float64(children), float64(sum["algo1.step"].total)), "frac")
	r.set("world.check_us", us("world.check"), "us")
	r.set("world.commit_us", us("world.commit"), "us")
	r.set("qp.check_release_us", us("qp.check_release"), "us")
	r.set("lppm.emission_us", us("lppm.emission"), "us")
	r.set("lppm.sample_us", us("lppm.sample"), "us")
	r.set("core.algo1_step_us", perStep("algo1.step"), "us")
	r.set("qp.step_us", perStep("qp.check_release"), "us")
	r.set("world.check_step_us", perStep("world.check"), "us")
	r.set("qp.calls_per_step", ratio(float64(algo.qpCalls), float64(algo.steps)), "count")
	r.set("qp.accept_frac", ratio(float64(algo.accepted), float64(algo.qpCalls)), "frac")
	r.set("qp.unknown", float64(algo.unknown), "count")
	r.set("core.attempts_per_step", ratio(float64(algo.attempts), float64(algo.steps)), "count")
	r.set("core.uniform_frac", ratio(float64(algo.uniform), float64(algo.steps)), "frac")
	r.set("core.alpha_mean", ratio(algo.alphaSum, float64(algo.steps)), "1/km")

	spanFile := filepath.Join(o.base, fmt.Sprintf("spans-%s-seed%d.jsonl", o.spec.name, o.seed))
	if err := writeJSONL(spanFile, spans); err != nil {
		return result{}, err
	}
	fmt.Printf("traced: %d spans written to %s; load phases %d + %d steps\n", len(spans), spanFile, plain.steps, traced.steps)

	res := result{Attempted: counts.attempted.Load(), Failed: counts.failed.Load(), Metrics: r.m}
	res.Correct = res.Failed == 0
	for _, msg := range counts.firstErrs {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	return res, nil
}
