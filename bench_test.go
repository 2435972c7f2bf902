// Benchmarks regenerating each table and figure of the paper's evaluation
// at benchmark scale (small map, short horizon, few runs — the shapes, not
// the absolute numbers). Run the full-scale versions with
// `go run ./cmd/experiments -full`.
package priste_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"priste"
	"priste/internal/experiments"
)

// benchSynth is the benchmark-scale synthetic workload: 6×6 map, horizon
// 24 (so the Fig. 8/9 window T={16:20} fits), 2 runs.
func benchSynth() experiments.SyntheticConfig {
	return experiments.SyntheticConfig{W: 6, H: 6, Cell: 1, Sigma: 1, T: 24, Runs: 2, Seed: 1}
}

func benchGeo() experiments.GeolifeConfig {
	return experiments.GeolifeConfig{W: 6, H: 6, CellKm: 1, Days: 8, T: 12, Runs: 2, Seed: 2}
}

func benchBudgetFig(b *testing.B, name string, cfg experiments.BudgetFigConfig) {
	b.Helper()
	// One series per panel keeps iterations meaningful.
	cfg.Epsilons = []float64{0.5}
	cfg.Alphas = []float64{0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.BudgetFig(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: per-timestamp budget for
// PRESENCE(S={1:10}, T={4:8}) under PriSTE with geo-indistinguishability.
func BenchmarkFig7(b *testing.B) {
	benchBudgetFig(b, "Fig7", experiments.DefaultFig7(benchSynth()))
}

// BenchmarkFig8 regenerates Fig. 8 (the later window T={16:20}).
func BenchmarkFig8(b *testing.B) {
	benchBudgetFig(b, "Fig8", experiments.DefaultFig8(benchSynth()))
}

// BenchmarkFig9 regenerates Fig. 9 (two events protected simultaneously).
func BenchmarkFig9(b *testing.B) {
	benchBudgetFig(b, "Fig9", experiments.DefaultFig9(benchSynth()))
}

// BenchmarkFig10 regenerates Fig. 10 (PriSTE with δ-location-set privacy).
func BenchmarkFig10(b *testing.B) {
	benchBudgetFig(b, "Fig10", experiments.DefaultFig10(benchSynth()))
}

// BenchmarkFig11 regenerates Fig. 11: utility vs ε across PLM budgets on
// the Geolife-substitute workload.
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(benchGeo(), []float64{1}, []float64{0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12: utility vs ε across δ values.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchGeo(), 0.5, []float64{0.3}, []float64{0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 regenerates Fig. 13: utility vs ε across mobility-pattern
// strengths σ.
func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(benchSynth(), []float64{0.1, 10}, 1, []float64{0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14Length regenerates the Fig. 14 left panel: quantification
// runtime versus event length, baseline included.
func BenchmarkFig14Length(b *testing.B) {
	cfg := experiments.DefaultRuntime(benchSynth())
	cfg.Lengths = []int{2, 4, 6}
	cfg.Widths = []int{2}
	cfg.FixedWidth = 3
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14Width regenerates the Fig. 14 right panel: quantification
// runtime versus event width.
func BenchmarkFig14Width(b *testing.B) {
	cfg := experiments.DefaultRuntime(benchSynth())
	cfg.Lengths = []int{2}
	cfg.Widths = []int{2, 4, 6}
	cfg.FixedLength = 4
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates Table III: the conservative-release
// threshold sweep.
func BenchmarkTableIII(b *testing.B) {
	cfg := experiments.DefaultTableIII(benchSynth())
	cfg.Thresholds = []time.Duration{200 * time.Microsecond, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedPlanManySessions measures the plan/state split on the
// engine hot path: many sessions share one compiled plan (one world
// model, one emission table) and step seeded random walks, with the
// certified-release cache off vs on. Sessions are recycled at a short
// horizon with stable seeds — the serving pattern of many short-lived
// users over one deployment — so with the cache on, sibling sessions
// reuse each other's certified verdicts instead of re-solving the QPs.
func BenchmarkSharedPlanManySessions(b *testing.B) {
	const (
		sessions = 32
		horizon  = 8
	)
	g, err := priste.NewGrid(6, 6, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := priste.GaussianChain(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := priste.ParseEventSpec("0-5@2-4", g.States(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := priste.DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0
	// Fixed per-session trajectories so cache-on and cache-off do the
	// same releases.
	trajs := make([][]int, sessions)
	for i := range trajs {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		trajs[i] = chain.SamplePath(rng, priste.UniformDistribution(g.States()), horizon)
	}
	for _, mode := range []struct {
		name  string
		cache bool
	}{{"cache=off", false}, {"cache=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			plan, err := priste.NewPlan(priste.SharedMechanism(priste.NewPlanarLaplace(g)),
				priste.Homogeneous(chain), []priste.Event{ev}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if mode.cache {
				plan.EnableCache(priste.NewCertCache(1 << 16))
			}
			fws := make([]*priste.Framework, sessions)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := n % sessions
				if fws[i] == nil || fws[i].T() == horizon {
					fw, err := plan.NewSession(rand.New(rand.NewSource(int64(1 + i))))
					if err != nil {
						b.Fatal(err)
					}
					fws[i] = fw
				}
				if _, err := fws[i].Step(trajs[i][fws[i].T()]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}

// BenchmarkEngineStepCeiling measures the raw engine throughput the
// serving benchmarks are compared against: the exact plan the
// benchmark-scale server compiles (6×6 grid, Gaussian chain, one
// PRESENCE event, certified-release cache on, per-session mechanism and
// PCG session RNG — the server's own session construction), stepped
// directly through per-goroutine Frameworks with no transport, queue,
// or encoding in the way. It reports steps/sec like the ServerStep*
// benchmarks, so a ServerStep* result over this one is the share of the
// engine's throughput that survives the serving path.
func BenchmarkEngineStepCeiling(b *testing.B) {
	g, err := priste.NewGrid(6, 6, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := priste.GaussianChain(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := priste.ParseEventSpec("0-5@2-4", g.States(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := priste.DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0
	mf := func() (priste.Mechanism, error) { return priste.NewPlanarLaplace(g), nil }
	plan, err := priste.NewPlan(mf, priste.Homogeneous(chain), []priste.Event{ev}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan.EnableCache(priste.NewCertCache(1 << 16))
	var nextSession atomic.Int64
	m := g.States()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		seed := nextSession.Add(1)
		fw, err := plan.NewSession(priste.NewSessionRNG(seed))
		if err != nil {
			b.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for pb.Next() {
			if _, err := fw.Step(rng.Intn(m)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "steps/sec")
}

// deferralWorlds are the maps of the service benchmark's workloads
// (replay-small, unique-mid, replay-dense): where an operator commit costs
// 19 µs, ~250 µs and ~3.4 ms.
var deferralWorlds = []struct {
	name  string
	side  int
	event string
}{
	{"m=36", 6, "0-5@2-4"},
	{"m=100", 10, "0-9@3-7"},
	{"m=256-dense", 16, "0-127@3-7"},
}

const (
	deferralSeed    = 77
	deferralHorizon = 12
)

// deferralPlan compiles one of deferralWorlds and releases one seeded
// session of deferralHorizon steps on it, returning the plan, the
// trajectory (one location longer, for a step after a restore) and the
// finished session's snapshot. With cache, the session's verdicts stay
// cached, so replaying the same seed and trajectory hits on every check.
func deferralPlan(b *testing.B, side int, spec string, cache bool) (*priste.Plan, []int, priste.SessionSnapshot) {
	b.Helper()
	g, err := priste.NewGrid(side, side, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := priste.GaussianChain(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := priste.ParseEventSpec(spec, g.States(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := priste.DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0
	plan, err := priste.NewPlan(priste.SharedMechanism(priste.NewPlanarLaplace(g)),
		priste.Homogeneous(chain), []priste.Event{ev}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if cache {
		plan.EnableCache(priste.NewCertCache(1 << 16))
	}
	traj := chain.SamplePath(rand.New(rand.NewSource(deferralSeed)), priste.UniformDistribution(g.States()), deferralHorizon+1)
	fw, err := plan.NewSession(priste.NewSessionRNG(deferralSeed))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.Run(traj[:deferralHorizon]); err != nil {
		b.Fatal(err)
	}
	snap, err := fw.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return plan, traj, snap
}

// BenchmarkHitStep prices one engine step whose every release check hits
// the certified-release cache (sessions replaying a warmed seed and
// trajectory, recycled at the horizon): the step a commit's operator
// products used to dominate and now never reaches. A developer tool, like
// the two below; the gate is the service benchmark.
func BenchmarkHitStep(b *testing.B) {
	for _, w := range deferralWorlds {
		b.Run(w.name, func(b *testing.B) {
			plan, traj, _ := deferralPlan(b, w.side, w.event, true)
			var fw *priste.Framework
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if fw == nil || fw.T() == deferralHorizon {
					var err error
					if fw, err = plan.NewSession(priste.NewSessionRNG(deferralSeed)); err != nil {
						b.Fatal(err)
					}
				}
				res, err := fw.Step(traj[fw.T()])
				if err != nil {
					b.Fatal(err)
				}
				if res.CertCacheMisses != 0 {
					b.Fatalf("step %d missed the cache", res.T)
				}
			}
		})
	}
}

// BenchmarkRestore prices Plan.Restore of a deferralHorizon-step
// planar-Laplace session: what daemon start-up, ImportSession and the
// router's re-homing pause pay per session.
func BenchmarkRestore(b *testing.B) {
	for _, w := range deferralWorlds {
		b.Run(w.name, func(b *testing.B) {
			plan, _, snap := deferralPlan(b, w.side, w.event, false)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := plan.Restore(snap, priste.NewSessionRNG(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreThenFirstMiss prices Restore plus the restored
// session's first step on a plan without a cache, which must read the
// operators: the total that deferring the rebuild conserves. It should
// equal an eager restore plus one miss step — the work moved, it did not
// shrink.
func BenchmarkRestoreThenFirstMiss(b *testing.B) {
	for _, w := range deferralWorlds {
		b.Run(w.name, func(b *testing.B) {
			plan, traj, snap := deferralPlan(b, w.side, w.event, false)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				fw, err := plan.Restore(snap, priste.NewSessionRNG(0))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fw.Step(traj[deferralHorizon]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchServer starts a benchmark-scale pristed server.
func benchServer(b *testing.B) (*priste.Server, priste.ServerConfig) {
	b.Helper()
	cfg := priste.DefaultServerConfig()
	cfg.GridW, cfg.GridH = 6, 6
	cfg.Events = []string{"0-5@2-4"}
	cfg.QPTimeout = 0
	srv, err := priste.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv, cfg
}

// benchSteps drives the serving path through any transport's client:
// parallel goroutines each own one pristed session and step a random
// walk; one iteration is one certified release round-trip. Shared by the
// HTTP and RPC serving benchmarks so the two transports print results
// over identical work. After the run it reports the server's per-stage
// mean latencies (decode, queue wait, engine commit, WAL append, encode)
// next to the end-to-end served mean, so the benchmark line names where
// each transport's serving overhead goes.
func benchSteps(b *testing.B, srv *priste.Server, transport string, cfg priste.ServerConfig, dial func() priste.APIClient) {
	var nextSession atomic.Int64
	m := cfg.GridW * cfg.GridH
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		client := dial()
		ctx := context.Background()
		seed := nextSession.Add(1)
		info, err := client.CreateSession(ctx, priste.CreateSessionRequest{Seed: &seed})
		if err != nil {
			b.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for pb.Next() {
			if _, err := client.Step(ctx, info.ID, rng.Intn(m)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "steps/sec")
	reportStages(b, srv, transport)
}

// reportStages attaches the per-transport stage breakdown of the run to
// the benchmark line: mean microseconds per stage, the stage sum, and
// the measured end-to-end served mean the sum should approximate.
func reportStages(b *testing.B, srv *priste.Server, transport string) {
	b.Helper()
	st := srv.Stats()
	var ts priste.TransportStats
	switch transport {
	case "http":
		ts = st.Transports.HTTP
	case "rpc":
		ts = st.Transports.RPC
	default:
		ts = st.Transports.Local
	}
	if ts.Steps == 0 {
		return
	}
	var sum float64
	for _, stage := range []string{"decode", "queue_wait", "commit_hit", "commit_miss", "rebuild", "wal_append", "encode"} {
		sg, ok := ts.Stages[stage]
		if !ok {
			continue
		}
		// Weight each stage by how many steps actually passed through it
		// (commit splits by cache hit/miss; wal_append only exists on
		// durable deployments), so the sum is per served step.
		contribution := sg.MeanMicros * float64(sg.Count) / float64(ts.Steps)
		sum += contribution
		b.ReportMetric(contribution, stage+"_us")
	}
	b.ReportMetric(sum, "stage_sum_us")
	b.ReportMetric(ts.StepMeanMicros, "e2e_us")
}

// benchStreamSteps drives the RPC streaming ingest path: parallel
// goroutines each own one session and one StepStream, a receiver
// goroutine drains releases while the benchmark loop fire-and-forgets
// locations, and the tail is drained through CloseSend before the
// goroutine reports. One iteration is one streamed certified release.
func benchStreamSteps(b *testing.B, srv *priste.Server, cfg priste.ServerConfig, dial func() priste.APIClient) {
	var nextSession atomic.Int64
	m := cfg.GridW * cfg.GridH
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		client := dial()
		sc, ok := client.(priste.StreamClient)
		if !ok {
			b.Error("client does not implement StreamClient")
			return
		}
		ctx := context.Background()
		seed := nextSession.Add(1)
		info, err := client.CreateSession(ctx, priste.CreateSessionRequest{Seed: &seed})
		if err != nil {
			b.Error(err)
			return
		}
		st, err := sc.StreamSteps(ctx, info.ID, 0)
		if err != nil {
			b.Error(err)
			return
		}
		recvDone := make(chan error, 1)
		go func() {
			for {
				if _, err := st.Recv(); err != nil {
					if errors.Is(err, io.EOF) {
						recvDone <- nil
					} else {
						recvDone <- err
					}
					return
				}
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		for pb.Next() {
			if err := st.Send(rng.Intn(m)); err != nil {
				b.Error(err)
				return
			}
		}
		_ = st.CloseSend()
		if err := <-recvDone; err != nil {
			b.Error(err)
		}
		_ = st.Close()
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "steps/sec")
	reportStages(b, srv, "rpc")
}

// BenchmarkServerStep measures HTTP/JSON serving-path throughput over
// the tuned default client transport (connection reuse sized to the
// benchmark's parallelism, compression off on the step path).
func BenchmarkServerStep(b *testing.B) {
	srv, cfg := benchServer(b)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	benchSteps(b, srv, "http", cfg, func() priste.APIClient {
		return priste.NewServerClient(ts.URL, nil)
	})
}

// BenchmarkServerStepStream measures windowed stream ingest over the
// binary RPC transport: fire-and-forget step frames with batched acks
// instead of one request/response round-trip per step.
func BenchmarkServerStepStream(b *testing.B) {
	srv, cfg := benchServer(b)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	rpcSrv := priste.NewRPCServer(srv)
	go func() { _ = rpcSrv.Serve(lis) }()
	defer rpcSrv.Close()
	benchStreamSteps(b, srv, cfg, func() priste.APIClient {
		client, err := priste.DialRPC(lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { client.Close() })
		return client
	})
}

// BenchmarkServerStepRPC is BenchmarkServerStep over the binary RPC
// transport: same server, same workload, persistent per-connection
// streams instead of per-request HTTP/JSON.
func BenchmarkServerStepRPC(b *testing.B) {
	srv, cfg := benchServer(b)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	rpcSrv := priste.NewRPCServer(srv)
	go func() { _ = rpcSrv.Serve(lis) }()
	defer rpcSrv.Close()
	benchSteps(b, srv, "rpc", cfg, func() priste.APIClient {
		client, err := priste.DialRPC(lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { client.Close() })
		return client
	})
}
