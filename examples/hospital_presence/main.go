// Hospital presence: quantify how much an UNPROTECTED location-privacy
// mechanism leaks about a spatiotemporal event, then fix it with PriSTE.
//
// This is the paper's motivating scenario (§I): the user is fine sharing
// noisy locations, but "visited the hospital in the last week" must stay
// deniable. A plain planar Laplace mechanism satisfies
// geo-indistinguishability at every timestamp, yet an adversary who knows
// the user's mobility pattern can combine the noisy reports over time and
// become near-certain about the visit. The two-possible-world quantifier
// measures that leakage exactly; the PriSTE framework then bounds it.
//
// Run: go run ./examples/hospital_presence
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"priste"
)

func main() {
	g, err := priste.NewGrid(8, 8, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	m := g.States()

	// Train a mobility model from synthetic commute traces (the paper
	// trains on Geolife; see the internal/geolife package doc for the
	// substitution).
	ds, err := priste.GenerateMobility(priste.MobilityConfig{Grid: g, Days: 40, StepsPerDay: 48, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	chain, err := priste.TrainChain(ds.States, priste.TrainOptions{States: m, Smoothing: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	pi := priste.UniformDistribution(m)

	// The hospital is a single cell near the user's commute corridor.
	hx, hy := g.XY(ds.Work)
	if hx > 0 {
		hx--
	}
	hospital := g.State(hx, hy)
	region, err := priste.RegionOf(m, hospital)
	if err != nil {
		log.Fatal(err)
	}
	visit, err := priste.NewPresence(region, 4, 9)
	if err != nil {
		log.Fatal(err)
	}
	md, err := priste.NewQuantModel(priste.Homogeneous(chain), visit)
	if err != nil {
		log.Fatal(err)
	}
	prior, err := priste.EventPrior(md, pi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event: %v (hospital cell %d)\n", visit, hospital)
	fmt.Printf("prior Pr(visit) under uniform belief: %.4f\n\n", prior)

	// A guilty trajectory: commute that detours through the hospital.
	rng := rand.New(rand.NewSource(1))
	truth := ds.States[0][:14]
	truth[5], truth[6] = hospital, hospital

	// --- Unprotected: plain 2-PLM at every timestamp. ---
	plm := priste.NewPlanarLaplace(g)
	em, err := plm.Emission(2.0)
	if err != nil {
		log.Fatal(err)
	}
	cols := make([]priste.Vector, len(truth))
	for t, u := range truth {
		o := sample(rng, em.Row(u))
		cols[t] = em.Col(o)
	}
	loss, err := priste.PrivacyLoss(md, pi, cols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain 2-PLM (geo-indistinguishable, NOT event-protected):\n")
	fmt.Printf("  realised event-privacy loss: %.3f (odds shift x%.1f)\n\n", loss, math.Exp(loss))

	// --- Protected: the same mechanism inside the PriSTE loop. ---
	const epsilon = 0.5
	fw, err := priste.NewFramework(plm, priste.Homogeneous(chain),
		[]priste.Event{visit}, priste.DefaultConfig(epsilon, 2.0), rng)
	if err != nil {
		log.Fatal(err)
	}
	results, err := fw.Run(truth)
	if err != nil {
		log.Fatal(err)
	}
	var budget float64
	uniform := 0
	for _, r := range results {
		budget += r.Alpha
		if r.Uniform {
			uniform++
		}
	}
	protLoss, err := fw.RealizedLoss(0, pi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PriSTE with epsilon=%g around the same 2-PLM:\n", epsilon)
	fmt.Printf("  realised event-privacy loss: %.3f (certified <= %.1f for ANY prior)\n", protLoss, epsilon)
	fmt.Printf("  average released budget: %.3f  (uniform fallbacks: %d/%d)\n",
		budget/float64(len(results)), uniform, len(results))
}

// sample draws an index from a probability row.
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
