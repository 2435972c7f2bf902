package priste_test

import (
	"fmt"
	"math/rand"

	"priste"
)

// ExampleNewFramework is the package documentation's quick start: protect
// "visited the 3×3 corner during t∈[3,7]" on a 10×10 map while releasing
// a sampled trajectory through the planar Laplace mechanism.
func ExampleNewFramework() {
	g, _ := priste.NewGrid(10, 10, 1.0)
	chain, _ := priste.GaussianChain(g, 1.0)
	region, _ := priste.RegionRect(g, 0, 0, 2, 2)
	ev, _ := priste.NewPresence(region, 3, 7)
	mech := priste.NewPlanarLaplace(g)
	cfg := priste.DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0 // no deadline, so the releases cannot depend on machine speed
	rng := rand.New(rand.NewSource(1))
	fw, err := priste.NewFramework(mech, priste.Homogeneous(chain), []priste.Event{ev}, cfg, rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	trueTrajectory := chain.SamplePath(rng, priste.UniformDistribution(g.States()), 8)
	for _, u := range trueTrajectory {
		step, err := fw.Step(u)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println(step.T, step.Obs, step.Alpha)
	}
	// Output:
	// 0 23 0.0625
	// 1 69 0.03125
	// 2 63 0.125
	// 3 24 0.0625
	// 4 97 0.015625
	// 5 74 0.125
	// 6 43 0.03125
	// 7 35 0.25
}

// ExampleNewChain quantifies a PRESENCE event under a caller's own
// transition matrix: the worked example of the paper's Appendix C, where
// Pr(EVENT) = 0.2·0.28 + 0.3·0.298 + 0.5·0.226.
func ExampleNewChain() {
	tm := priste.NewMatrix(3, 3)
	for i, row := range [][]float64{{0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0, 0.1, 0.9}} {
		copy(tm.Row(i), row)
	}
	chain, err := priste.NewChain(tm)
	if err != nil {
		fmt.Println(err)
		return
	}
	region, _ := priste.RegionOf(3, 0, 1)
	ev, _ := priste.NewPresence(region, 2, 3)
	md, err := priste.NewQuantModel(priste.Homogeneous(chain), ev)
	if err != nil {
		fmt.Println(err)
		return
	}
	prior, _ := priste.EventPrior(md, priste.Vector{0.2, 0.3, 0.5})
	fmt.Printf("Pr(EVENT) = %.4f\n", prior)
	// Output: Pr(EVENT) = 0.2584
}
