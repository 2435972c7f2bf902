// Adversary audit: define a custom spatiotemporal event as a Boolean
// expression (Definition II.1), compile it, and watch a Bayesian
// adversary's belief evolve against an unprotected versus a PriSTE-
// protected release — including localisation and trajectory-recovery
// attacks.
//
// Run: go run ./examples/adversary_audit
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"priste"
)

func main() {
	g, err := priste.NewGrid(6, 6, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	m := g.States()
	chain, err := priste.GaussianChain(g, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	pi := priste.UniformDistribution(m)

	// A custom event straight from Boolean logic: "at t=2 the user is in
	// cell 7 or 8, AND at t=4 in cell 14 or 15" — a Fig. 1(e)-style
	// trajectory pattern no plain LPPM metric speaks about.
	expr := priste.And(
		priste.Or(priste.Pred(2, 7), priste.Pred(2, 8)),
		priste.Or(priste.Pred(4, 14), priste.Pred(4, 15)),
	)
	ev, err := priste.CompileEvent(expr, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled event: %v\n  from expression %v\n\n", ev, expr)

	adv, err := priste.NewAdversary(chain, pi, g)
	if err != nil {
		log.Fatal(err)
	}

	// A guilty trajectory satisfying the pattern.
	truth := []int{1, 7, 8, 14, 15, 21, 22, 28}
	rng := rand.New(rand.NewSource(17))

	// --- Unprotected release: bare 3-PLM. ---
	plm := priste.NewPlanarLaplace(g)
	em, err := plm.Emission(3.0)
	if err != nil {
		log.Fatal(err)
	}
	cols := make([]priste.Vector, len(truth))
	for t, u := range truth {
		o := sample(rng, em.Row(u))
		cols[t] = em.Col(o)
	}
	report("bare 3-PLM (unprotected)", adv, ev, cols, truth)

	// --- PriSTE-protected release at eps = 0.4. ---
	const eps = 0.4
	fw, err := priste.NewFramework(plm, priste.Homogeneous(chain),
		[]priste.Event{ev}, priste.DefaultConfig(eps, 3.0), rng)
	if err != nil {
		log.Fatal(err)
	}
	results, err := fw.Run(truth)
	if err != nil {
		log.Fatal(err)
	}
	pcols := make([]priste.Vector, len(results))
	for t, r := range results {
		if r.Uniform {
			pcols[t] = priste.UniformDistribution(m)
			continue
		}
		e, err := plm.Emission(r.Alpha)
		if err != nil {
			log.Fatal(err)
		}
		pcols[t] = e.Col(r.Obs)
	}
	report(fmt.Sprintf("PriSTE, eps=%g (bound e^eps = %.2f)", eps, math.Exp(eps)), adv, ev, pcols, truth)
}

func report(name string, adv *priste.Adversary, ev priste.Event, cols []priste.Vector, truth []int) {
	inf, err := adv.InferEvent(ev, cols)
	if err != nil {
		log.Fatal(err)
	}
	loc, err := adv.InferLocations(cols, truth)
	if err != nil {
		log.Fatal(err)
	}
	_, acc, err := adv.RecoverTrajectory(cols, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", name)
	fmt.Printf("  event prior %.4f -> final posterior %.4f (odds shift x%.2f, guess=%v)\n",
		inf.Prior, inf.Posterior[len(inf.Posterior)-1], inf.OddsShift, inf.Guess)
	fmt.Printf("  localisation: hit rate %.0f%%, mean error %.2f km\n", loc.HitRate*100, loc.MeanError)
	fmt.Printf("  trajectory recovery accuracy: %.0f%%\n\n", acc*100)
}

func sample(rng *rand.Rand, row priste.Vector) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range row {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(row) - 1
}
