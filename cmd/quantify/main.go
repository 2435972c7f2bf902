// Command quantify audits how much ε-spatiotemporal event privacy an
// existing release provides: given the mobility model, an event and the
// per-timestamp (budget, observation) pairs of a released trajectory (the
// output of cmd/priste), it replays the two-possible-world quantifier and
// reports the adversary's prior, posterior trajectory and realised odds
// shift — the paper's §III quantification as a standalone tool.
//
// Usage:
//
//	go run ./cmd/priste -grid 8 ... > released.csv
//	go run ./cmd/quantify -grid 8 -event "0-9@3-7" -in released.csv
//
// The input format is cmd/priste's output: lines "t,true,released,budget,
// attempts,uniform" (the "true" column is ignored — the audit sees only
// what the adversary sees).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"priste"
)

func main() {
	var (
		gridN = flag.Int("grid", 10, "map side length")
		cell  = flag.Float64("cell", 1.0, "cell edge length (km)")
		sigma = flag.Float64("sigma", 1.0, "mobility Gaussian scale")
		spec  = flag.String("event", "0-9@3-7", `PRESENCE spec "LO-HI@START-END"`)
		in    = flag.String("in", "", "released trajectory CSV (cmd/priste output); default stdin")
	)
	flag.Parse()

	g, err := priste.NewGrid(*gridN, *gridN, *cell)
	check(err)
	m := g.States()
	chain, err := priste.GaussianChain(g, *sigma)
	check(err)
	pi := priste.UniformDistribution(m)

	var f *os.File
	if *in == "" {
		f = os.Stdin
	} else {
		f, err = os.Open(*in)
		check(err)
		defer f.Close()
	}
	releases, err := parseReleases(f, m)
	check(err)
	if len(releases) == 0 {
		check(fmt.Errorf("no releases parsed"))
	}

	ev, err := priste.ParseEventSpec(*spec, m, len(releases))
	check(err)
	md, err := priste.NewQuantModel(priste.Homogeneous(chain), ev)
	check(err)
	prior, err := priste.EventPrior(md, pi)
	check(err)

	// Rebuild the emission columns the adversary would use.
	plm := priste.NewPlanarLaplace(g)
	cols := make([]priste.Vector, len(releases))
	for t, r := range releases {
		if r.uniform || r.budget <= 0 {
			cols[t] = priste.UniformDistribution(m)
			continue
		}
		em, err := plm.Emission(r.budget)
		check(err)
		cols[t] = em.Col(r.obs)
	}

	loss, err := priste.PrivacyLoss(md, pi, cols)
	check(err)
	fmt.Printf("event: %v\n", ev)
	fmt.Printf("prior Pr(EVENT) under uniform belief: %.6f\n", prior)
	fmt.Printf("realised privacy loss: %.6f (odds shift x%.3f)\n", loss, math.Exp(loss))
	fmt.Println("\nt,posterior")
	post, err := priste.EventPosterior(md, pi, cols)
	check(err)
	for t, p := range post {
		fmt.Printf("%d,%.6f\n", t, p)
	}
}

type release struct {
	obs     int
	budget  float64
	uniform bool
}

func parseReleases(f *os.File, m int) ([]release, error) {
	sc := bufio.NewScanner(f)
	var out []release
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("line %d: want t,true,released,budget,attempts,uniform", line)
		}
		obs, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("line %d: released: %w", line, err)
		}
		if obs < 0 || obs >= m {
			return nil, fmt.Errorf("line %d: released state %d outside %d-state map", line, obs, m)
		}
		budget, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: budget: %w", line, err)
		}
		uniform, err := strconv.ParseBool(fields[5])
		if err != nil {
			return nil, fmt.Errorf("line %d: uniform: %w", line, err)
		}
		out = append(out, release{obs: obs, budget: budget, uniform: uniform})
	}
	return out, sc.Err()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quantify:", err)
		os.Exit(1)
	}
}
