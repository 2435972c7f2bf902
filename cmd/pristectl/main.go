// Command pristectl is the CLI front-end of the pristed API: a third
// transport consumer next to the HTTP and RPC clients, written entirely
// against the transport-neutral api.Client interface — the same
// interface the conformance tests run — so every subcommand works
// identically over HTTP/JSON (-http) and the binary RPC protocol
// (-rpc).
//
// Usage:
//
//	pristectl [-http http://127.0.0.1:8377 | -rpc 127.0.0.1:8378] <command> [args]
//
// Commands:
//
//	create [-id ID] [-seed N] [-eps E] [-alpha A] [-mech M] [-delta D] [-event SPEC]...
//	get ID                 session state
//	step ID LOC            release one location
//	stream [-window W] [-n N -seed S -states M] ID
//	                       pump a step stream: locations from stdin
//	                       (whitespace-separated), or -n random-walk steps;
//	                       certified releases print as JSON lines in order
//	                       (RPC only)
//	watch [-n N] ID        follow the session's SSE release stream (HTTP only)
//	delete ID              close a session
//	list [-limit N] [-cursor C]
//	export ID              write the session's migratable state to stdout
//	import                 read an exported session from stdin and register it
//	stats [-stages|-kernels]  service counters (-stages: per-transport stage
//	                       table; -kernels: kernel dispatch table)
//	health                 liveness probe
//	fleet status           ring membership, health and per-backend session
//	                       counts (target must be a pristerouter)
//	fleet rebalance [-undrain] BACKEND
//	                       drain a backend's sessions onto the rest of the
//	                       fleet (or readmit it with -undrain); HTTP only
//
// Every command prints its response as JSON on stdout, so a migration is
// a shell pipeline:
//
//	pristectl -http http://a:8377 export alice | pristectl -http http://b:8377 import
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"priste/internal/api"
	"priste/internal/eventspec"
	"priste/internal/rpc"
	"priste/internal/server"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pristectl: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}

func main() {
	httpBase := flag.String("http", "http://127.0.0.1:8377", "pristed HTTP base URL")
	rpcAddr := flag.String("rpc", "", "pristed RPC address (overrides -http when set)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-command timeout")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pristectl [-http URL | -rpc ADDR] <create|get|step|stream|watch|delete|list|export|import|stats|health|fleet> [args]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	// One api.Client, two transports: the subcommands cannot tell them
	// apart.
	var client api.Client
	if *rpcAddr != "" {
		c, err := rpc.Dial(*rpcAddr)
		if err != nil {
			fatalf("%v", err)
		}
		defer c.Close()
		client = c
	} else {
		client = server.NewClient(*httpBase, nil)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "create":
		runCreate(ctx, client, args)
	case "get":
		info, err := client.Session(ctx, oneArg(cmd, args))
		exit(info, err)
	case "step":
		if len(args) != 2 {
			fatalf("usage: step ID LOC")
		}
		loc, err := strconv.Atoi(args[1])
		if err != nil {
			fatalf("bad location %q", args[1])
		}
		res, err := client.Step(ctx, args[0], loc)
		exit(res, err)
	case "stream":
		runStream(ctx, client, args)
	case "watch":
		if *rpcAddr != "" {
			fatalf("watch follows the SSE release stream and needs the HTTP transport (-http)")
		}
		runWatch(ctx, *httpBase, args)
	case "delete":
		if err := client.DeleteSession(ctx, oneArg(cmd, args)); err != nil {
			fatalf("%v", err)
		}
		printJSON(map[string]string{"deleted": args[0]})
	case "list":
		runList(ctx, client, args)
	case "export":
		exp, err := client.ExportSession(ctx, oneArg(cmd, args))
		exit(exp, err)
	case "import":
		var exp api.SessionExport
		if err := json.NewDecoder(os.Stdin).Decode(&exp); err != nil {
			fatalf("decode export from stdin: %v", err)
		}
		info, err := client.ImportSession(ctx, exp)
		exit(info, err)
	case "stats":
		runStats(ctx, client, args)
	case "fleet":
		runFleet(ctx, client, *httpBase, *rpcAddr, args)
	case "health":
		if err := client.Health(ctx); err != nil {
			fatalf("%v", err)
		}
		printJSON(map[string]string{"status": "ok"})
	default:
		fatalf("unknown command %q", cmd)
	}
}

func oneArg(cmd string, args []string) string {
	if len(args) != 1 {
		fatalf("usage: %s ID", cmd)
	}
	return args[0]
}

func exit(v any, err error) {
	if err != nil {
		fatalf("%v", err)
	}
	printJSON(v)
}

func runCreate(ctx context.Context, client api.Client, args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	var events eventspec.ListFlag
	id := fs.String("id", "", "session id (random when empty)")
	seed := fs.Int64("seed", 0, "session RNG seed; unset draws a random one")
	eps := fs.Float64("eps", 0, "epsilon (0 = server default)")
	alpha := fs.Float64("alpha", 0, "initial budget (0 = server default)")
	mech := fs.String("mech", "", "mechanism (laplace or delta; empty = server default)")
	delta := fs.Float64("delta", -1, "delta-location-set parameter; negative = server default")
	fs.Var(&events, "event", `protected-event spec "LO-HI@START-END" (repeatable)`)
	_ = fs.Parse(args)

	req := api.CreateSessionRequest{
		ID:        *id,
		Epsilon:   *eps,
		Alpha:     *alpha,
		Mechanism: *mech,
		Events:    events,
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if seedSet {
		req.Seed = seed
	}
	if *delta >= 0 {
		req.Delta = delta
	}
	info, err := client.CreateSession(ctx, req)
	exit(info, err)
}

func runStats(ctx context.Context, client api.Client, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	stages := fs.Bool("stages", false, "render the per-transport step-stage breakdown as a table instead of JSON")
	kernels := fs.Bool("kernels", false, "render the compiled-kernel and dispatch summary as a table instead of JSON")
	_ = fs.Parse(args)
	st, err := client.Stats(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	if *kernels {
		p := st.Plans
		// Rows render through one tabwriter so the METRIC column is
		// sized to the longest counter name present.
		rows := []struct {
			name  string
			value string
		}{
			{"dense_kernels", fmt.Sprintf("%d", p.DenseKernels)},
			{"sparse_kernels", fmt.Sprintf("%d", p.SparseKernels)},
			{"kernel_density", fmt.Sprintf("%.4f", p.KernelDensity)},
			{"blocked_products", fmt.Sprintf("%d", p.BlockedKernels)},
			{"factored_products", fmt.Sprintf("%d", p.FactoredKernels)},
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "METRIC\tVALUE")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\n", r.name, r.value)
		}
		if err := tw.Flush(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if !*stages {
		printJSON(st)
		return
	}
	// Stage order mirrors a step's path through the server; a transport
	// with no served steps is skipped.
	order := []string{"decode", "queue_wait", "commit_hit", "commit_miss", "rebuild", "wal_append", "encode"}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TRANSPORT\tSTAGE\tCOUNT\tMEAN_US\tP99_US")
	for _, tr := range []struct {
		name string
		ts   api.TransportStats
	}{{"http", st.Transports.HTTP}, {"rpc", st.Transports.RPC}, {"local", st.Transports.Local}} {
		if tr.ts.Steps == 0 && len(tr.ts.Stages) == 0 {
			continue
		}
		if tr.ts.Steps > 0 {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\n",
				tr.name, "(served e2e)", tr.ts.Steps, tr.ts.StepMeanMicros, tr.ts.StepP99Micros)
		}
		for _, name := range order {
			sg, ok := tr.ts.Stages[name]
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\n", tr.name, name, sg.Count, sg.MeanMicros, sg.P99Micros)
		}
	}
	if err := tw.Flush(); err != nil {
		fatalf("%v", err)
	}
}

// runStream pumps a step stream into one session: Send on one
// goroutine, Recv on this one, so the in-flight window stays full. With
// -n it drives a seeded random walk (deterministic, for smoke tests);
// otherwise it reads whitespace-separated locations from stdin. Each
// certified release prints as one JSON line, in step order.
func runStream(ctx context.Context, client api.Client, args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	window := fs.Int("window", 0, "in-flight step window (0 = server default)")
	n := fs.Int("n", 0, "drive N seeded random-walk steps instead of reading locations from stdin")
	seed := fs.Int64("seed", 1, "random-walk RNG seed (with -n)")
	states := fs.Int("states", 100, "random-walk location space size (with -n)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: stream [-window W] [-n N -seed S -states M] ID")
	}
	sc, ok := client.(api.StreamClient)
	if !ok {
		fatalf("transport does not support step streams")
	}
	st, err := sc.StreamSteps(ctx, fs.Arg(0), *window)
	if err != nil {
		fatalf("%v", err)
	}
	defer st.Close()

	sendErr := make(chan error, 1)
	go func() {
		sendErr <- pumpSteps(st, *n, *seed, *states)
		_ = st.CloseSend()
	}()

	enc := json.NewEncoder(os.Stdout)
	for {
		resp, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fatalf("%v", err)
		}
		if err := enc.Encode(resp); err != nil {
			fatalf("%v", err)
		}
	}
	if err := <-sendErr; err != nil {
		fatalf("%v", err)
	}
}

// pumpSteps feeds the stream's input side: a seeded random walk with
// -n, stdin locations otherwise.
func pumpSteps(st api.StepStream, n int, seed int64, states int) error {
	if n > 0 {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if err := st.Send(rng.Intn(states)); err != nil {
				return err
			}
		}
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		loc, err := strconv.Atoi(sc.Text())
		if err != nil {
			return fmt.Errorf("bad location %q", sc.Text())
		}
		if err := st.Send(loc); err != nil {
			return err
		}
	}
	return sc.Err()
}

// runWatch follows a session's SSE release stream (GET
// /v1/sessions/{id}/stream), printing each release's JSON payload as
// one line. -n exits after that many releases; otherwise it follows
// until the stream ends (session deleted, subscriber lagged) or the
// -timeout expires.
func runWatch(ctx context.Context, base string, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	n := fs.Int("n", 0, "exit after N releases (0 = follow until the stream ends)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("usage: watch [-n N] ID")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/sessions/"+url.PathEscape(fs.Arg(0))+"/stream", nil)
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatalf("stream: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	// Minimal SSE consumer: accumulate event/data lines, dispatch on the
	// blank separator. The server sends single-line data payloads.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event, data string
	count := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			switch event {
			case "release":
				fmt.Println(data)
				count++
				if *n > 0 && count >= *n {
					return
				}
			case "end":
				fmt.Fprintln(os.Stderr, "pristectl: stream ended: "+data)
				return
			}
			event, data = "", ""
			continue
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("%v", err)
	}
}

// runFleet drives a pristerouter's fleet surface: `fleet status` renders
// the ring membership table from the router's stats fleet section (any
// transport), `fleet rebalance [-undrain] NAME` posts to the router's
// /v1/fleet/rebalance admin route (HTTP only, like watch).
func runFleet(ctx context.Context, client api.Client, httpBase, rpcAddr string, args []string) {
	if len(args) < 1 {
		fatalf("usage: fleet <status|rebalance> [args]")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "status":
		st, err := client.Stats(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		fleet := st.Fleet
		if fleet == nil {
			fatalf("no fleet section in stats — is the target a pristerouter?")
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "BACKEND\tHEALTHY\tIN_RING\tDRAINING\tSESSIONS\tROUTES")
		for _, m := range fleet.Members {
			fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%d\t%d\n",
				m.Name, m.Healthy, m.InRing, m.Draining, m.Sessions, m.Routes)
		}
		fmt.Fprintf(tw, "\nepoch\t%d\nvnodes\t%d\nmigrations\t%d ok / %d failed (%d started)\nmisroute_retries\t%d\nhealth_transitions\t%d\n",
			fleet.Epoch, fleet.VirtualNodes,
			fleet.MigrationsCompleted, fleet.MigrationsFailed, fleet.MigrationsStarted,
			fleet.MisrouteRetries, fleet.HealthTransitions)
		if err := tw.Flush(); err != nil {
			fatalf("%v", err)
		}
	case "rebalance":
		if rpcAddr != "" {
			fatalf("fleet rebalance posts to the router's admin route and needs the HTTP transport (-http)")
		}
		fs := flag.NewFlagSet("fleet rebalance", flag.ExitOnError)
		undrain := fs.Bool("undrain", false, "readmit the backend (reverse a drain) instead of draining it")
		_ = fs.Parse(rest)
		if fs.NArg() != 1 {
			fatalf("usage: fleet rebalance [-undrain] BACKEND")
		}
		body, err := json.Marshal(map[string]any{"backend": fs.Arg(0), "undrain": *undrain})
		if err != nil {
			fatalf("%v", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			httpBase+"/v1/fleet/rebalance", strings.NewReader(string(body)))
		if err != nil {
			fatalf("%v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatalf("%v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			fatalf("rebalance: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		var rep any
		if err := json.Unmarshal(raw, &rep); err != nil {
			fatalf("%v", err)
		}
		printJSON(rep)
	default:
		fatalf("unknown fleet subcommand %q (want status or rebalance)", sub)
	}
}

func runList(ctx context.Context, client api.Client, args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	limit := fs.Int("limit", 0, "page size (0 = server default)")
	cursor := fs.String("cursor", "", "resume cursor from the previous page")
	_ = fs.Parse(args)
	page, err := client.ListSessions(ctx, api.ListSessionsRequest{Limit: *limit, Cursor: *cursor})
	exit(page, err)
}
