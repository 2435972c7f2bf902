// Command pristed is the PriSTE release daemon: a long-lived service
// managing many independent per-user privacy sessions, each a full
// PriSTE release loop (core.Framework) with its own RNG, mechanism and
// protected-event set. Steps from different users run concurrently on a
// worker pool; each session stays single-writer with FIFO ordering and
// bounded-queue backpressure. One server serves two transports over the
// same versioned API (internal/api): HTTP/JSON on -addr and, with
// -rpc-addr set, the length-prefixed binary RPC protocol (internal/rpc)
// whose persistent per-connection streams skip per-request HTTP/JSON
// overhead on the hot step path.
//
// Usage:
//
//	pristed [-addr :8377] [-rpc-addr :8378] [-grid 10] [-cell 1.0] \
//	    [-sigma 1.0] [-eps 0.5] [-alpha 1.0] [-delta -1] [-event "0-9@3-7"]... \
//	    [-max-sessions 4096] [-session-ttl 15m] [-workers 0] [-queue 64] \
//	    [-qp-timeout 1s] [-cert-cache 65536] \
//	    [-store-dir /var/lib/pristed] [-fsync] [-snapshot-every 256] \
//	    [-log-format text] [-log-level info] [-slow-step 500ms] \
//	    [-drain-batch 64] [-stream-buffer 256] \
//	    [-pprof-addr ""]
//
// With -store-dir set, every committed release is appended to the
// directory's one write-ahead journal, shared by all sessions, before it
// is acknowledged; every -snapshot-every steps a session's full history
// is journaled as one snapshot record that supersedes its earlier
// records, and the journal drops superseded and deleted sessions' bytes
// by rewriting itself once they outweigh the live ones. A restarted
// daemon rehydrates all surviving sessions from the journal, migrating
// a directory an older build left with one WAL and snapshot file per
// session on its first start. -fsync additionally syncs each append to
// stable storage. On SIGTERM the daemon drains pending steps, flushes
// final snapshots and only then exits.
//
// The daemon serves one world, the exact Gaussian mobility chain of
// -grid, -cell and -sigma, and commits it through its Kronecker
// factors; no flag picks how the operators are computed.
//
// HTTP API (the RPC transport carries the same surface plus windowed
// step streams, which are RPC-only; see internal/rpc for the framing):
//
//	POST   /v1/sessions             {"seed":1,"events":["0-9@3-7"]}
//	GET    /v1/sessions             list sessions (limit/cursor)
//	POST   /v1/sessions/{id}/step   {"loc":42}
//	GET    /v1/sessions/{id}/stream SSE push stream of certified releases
//	POST   /v1/step                 {"steps":[{"session_id":"..","loc":42},...]}
//	GET    /v1/sessions/{id}        session state
//	DELETE /v1/sessions/{id}        close a session
//	GET    /v1/sessions/{id}/export export for migration
//	POST   /v1/sessions/import      import a migrated session
//	GET    /healthz                 liveness (503 while draining)
//	GET    /statsz                  counters (sessions, steps, latency, transports)
//	GET    /metricsz                Prometheus-text metrics
//
// Observability: structured logs go to stderr as -log-format text or
// json at -log-level; every request carries a trace ID (the
// X-Priste-Trace HTTP header / the RPC frame's trace field, generated
// server-side when absent) that appears in slow-step warnings (steps
// slower than -slow-step). -pprof-addr serves net/http/pprof on a
// separate listener kept off the public API address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"priste/internal/eventspec"
	"priste/internal/obs"
	"priste/internal/rpc"
	"priste/internal/server"
	"priste/internal/store"
)

func main() {
	var events eventspec.ListFlag
	var (
		addr        = flag.String("addr", ":8377", "HTTP listen address")
		rpcAddr     = flag.String("rpc-addr", "", "binary RPC listen address (e.g. :8378); empty disables the RPC transport")
		gridN       = flag.Int("grid", 10, "map side length")
		cell        = flag.Float64("cell", 1.0, "cell edge length (km)")
		sigma       = flag.Float64("sigma", 1.0, "mobility Gaussian scale")
		eps         = flag.Float64("eps", 0.5, "default epsilon-spatiotemporal event privacy")
		alpha       = flag.Float64("alpha", 1.0, "default initial PLM budget (1/km)")
		delta       = flag.Float64("delta", -1, "default delta-location-set parameter; negative = plain geo-ind")
		qpTimeout   = flag.Duration("qp-timeout", time.Second, "conservative-release threshold per candidate; 0 = no limit")
		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "live-session cap (LRU eviction beyond)")
		sessionTTL  = flag.Duration("session-ttl", server.DefaultSessionTTL, "idle-session eviction TTL; negative disables")
		workers     = flag.Int("workers", 0, "step worker pool size; 0 = GOMAXPROCS")
		queue       = flag.Int("queue", server.DefaultQueueDepth, "per-session pending-step queue depth")
		certCache   = flag.Int("cert-cache", server.DefaultCertCacheSize, "certified-release cache capacity in entries, shared across sessions; 0 disables")
		storeDir    = flag.String("store-dir", "", "session durability directory (one append-only journal); empty = in-memory only")
		fsync       = flag.Bool("fsync", false, "fsync every journal append before acknowledging the step (requires -store-dir)")
		snapEvery   = flag.Int("snapshot-every", server.DefaultSnapshotEvery, "journal a session's full history as one snapshot record every N steps; negative disables")
		logFormat   = flag.String("log-format", obs.LogText, "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		slowStep    = flag.Duration("slow-step", server.DefaultSlowStep, "log a warning (with trace ID and stage breakdown) for steps at least this slow; negative disables")
		pprofAddr   = flag.String("pprof-addr", "", "net/http/pprof listen address (e.g. localhost:6060); empty disables profiling")
		drainBatch  = flag.Int("drain-batch", server.DefaultDrainBatch, "max steps one worker visit commits for a session before parking it behind its peers; negative removes the cap")
		streamBuf   = flag.Int("stream-buffer", server.DefaultStreamBuffer, "per-subscriber buffered releases on the SSE stream; a subscriber lagging further is dropped")
	)
	flag.Var(&events, "event", `default PRESENCE spec "LO-HI@START-END" (repeatable)`)
	flag.Parse()

	if *logFormat != obs.LogText && *logFormat != obs.LogJSON {
		fmt.Fprintln(os.Stderr, "pristed: -log-format must be text or json")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pristed:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)

	if *workers < 0 {
		// Config.Workers < 0 is an internal test hook (no pool at all);
		// a daemon without workers would accept steps and never serve
		// them.
		fmt.Fprintln(os.Stderr, "pristed: -workers must be >= 0 (0 = GOMAXPROCS)")
		os.Exit(2)
	}

	cfg := server.DefaultConfig()
	cfg.GridW, cfg.GridH = *gridN, *gridN
	cfg.Cell = *cell
	cfg.Sigma = *sigma
	cfg.Epsilon = *eps
	cfg.Alpha = *alpha
	cfg.QPTimeout = *qpTimeout
	cfg.MaxSessions = *maxSessions
	cfg.SessionTTL = *sessionTTL
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	if *certCache <= 0 {
		cfg.CertCacheSize = -1 // disable
	} else {
		cfg.CertCacheSize = *certCache
	}
	if *delta >= 0 {
		cfg.Mechanism = server.MechanismDelta
		cfg.Delta = *delta
	}
	if len(events) > 0 {
		cfg.Events = events
	}
	cfg.SnapshotEvery = *snapEvery
	cfg.Logger = logger
	cfg.SlowStep = *slowStep
	cfg.DrainBatch = *drainBatch
	cfg.StreamBuffer = *streamBuf
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pristed:", err)
			os.Exit(1)
		}
		cfg.Store = st
	} else if *fsync {
		fmt.Fprintln(os.Stderr, "pristed: -fsync requires -store-dir")
		os.Exit(2)
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pristed:", err)
		os.Exit(1)
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The RPC transport is a second front-end over the same Server: both
	// are thin codecs over the shared api.Service.
	var rpcSrv *rpc.Server
	if *rpcAddr != "" {
		lis, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pristed:", err)
			os.Exit(1)
		}
		rpcSrv = rpc.NewServer(srv)
		rpcSrv.Observe = srv.ObserveRPC
		rpcSrv.ObserveStep = srv.ObserveRPCStep
		rpcSrv.OnStreamOpen = srv.ObserveStreamOpen
		rpcSrv.OnStreamClose = srv.ObserveStreamClose
		rpcSrv.ObserveStreamWindow = srv.ObserveStreamWindow
		rpcSrv.ObserveStreamAcks = srv.ObserveStreamAcks
		go func() {
			if err := rpcSrv.Serve(lis); err != nil {
				logger.Error("pristed: rpc listener failed", "err", err)
			}
		}()
	}

	// pprof rides its own listener so profiling endpoints never share the
	// public API address (or its metrics middleware).
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		lis, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pristed:", err)
			os.Exit(1)
		}
		logger.Info("pristed: pprof listening", "addr", lis.Addr().String())
		go func() {
			psrv := &http.Server{Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pristed: pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	durability := "in-memory"
	if *storeDir != "" {
		durability = fmt.Sprintf("durable at %s (fsync=%v)", *storeDir, *fsync)
		if st := srv.Stats().Store; st.Replayed > 0 || st.ReplayFailures > 0 {
			logger.Info("pristed: rehydrated sessions",
				"replayed", st.Replayed, "failed", st.ReplayFailures,
				"replay_ms", st.ReplayMicros/1e3)
		}
	}
	health := srv.Health()
	banner := []any{
		"http_addr", *addr,
		"grid", fmt.Sprintf("%dx%d", cfg.GridW, cfg.GridH),
		"mechanism", cfg.Mechanism,
		"max_sessions", cfg.MaxSessions,
		"queue_depth", cfg.QueueDepth,
		"durability", durability,
		"version", health.Version,
		"go", health.GoVersion,
		"row_kernel", health.RowKernel,
	}
	if *rpcAddr != "" {
		banner = append(banner, "rpc_addr", *rpcAddr)
	}
	logger.Info("pristed: serving", banner...)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pristed:", err)
		os.Exit(1)
	}
	// Both listeners down, in-flight handlers returned; drain the queued
	// steps, flush final snapshots, then exit.
	if rpcSrv != nil {
		_ = rpcSrv.Close()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("pristed: drain cut short; journal still covers pending state", "err", err)
	}
	logger.Info("pristed: shut down")
}
