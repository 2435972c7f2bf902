package priste_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"priste"
)

// TestEndToEndPresence drives the whole public API: map, chain, event,
// mechanism, framework, release, realised-loss audit.
func TestEndToEndPresence(t *testing.T) {
	g, err := priste.NewGrid(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := priste.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	region, err := priste.RegionRect(g, 0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := priste.NewPresence(region, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fw, err := priste.NewFramework(priste.NewPlanarLaplace(g), priste.Homogeneous(chain),
		[]priste.Event{ev}, priste.DefaultConfig(0.5, 1.0), rng)
	if err != nil {
		t.Fatal(err)
	}
	traj := chain.SamplePath(rng, priste.UniformDistribution(16), 7)
	results, err := fw.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("released %d steps", len(results))
	}
	loss, err := fw.RealizedLoss(0, priste.UniformDistribution(16))
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.5+1e-6 {
		t.Fatalf("realised loss %v exceeds epsilon 0.5", loss)
	}
}

// TestQuantifierAPI checks the quantification entry points.
func TestQuantifierAPI(t *testing.T) {
	g, _ := priste.NewGrid(3, 1, 1)
	m := priste.NewMatrix(3, 3)
	rows := [][]float64{{0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0, 0.1, 0.9}}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	_ = g
	chain, err := priste.NewChain(m)
	if err != nil {
		t.Fatal(err)
	}
	region, err := priste.RegionOf(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := priste.NewPresence(region, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	md, err := priste.NewQuantModel(priste.Homogeneous(chain), ev)
	if err != nil {
		t.Fatal(err)
	}
	// Appendix C golden value.
	pi := priste.Vector{0.2, 0.3, 0.5}
	prior, err := priste.EventPrior(md, pi)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2*0.28 + 0.3*0.298 + 0.5*0.226
	if math.Abs(prior-want) > 1e-12 {
		t.Fatalf("prior = %v want %v", prior, want)
	}
	// Uninformative observations leak nothing.
	u := priste.Vector{1. / 3, 1. / 3, 1. / 3}
	loss, err := priste.PrivacyLoss(md, priste.UniformDistribution(3), []priste.Vector{u, u})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-10 {
		t.Fatalf("loss = %v", loss)
	}
}

// TestExpressionAPI exercises the Boolean-expression builders.
func TestExpressionAPI(t *testing.T) {
	e := priste.And(priste.Or(priste.Pred(0, 1), priste.Pred(0, 2)), priste.Or(priste.Pred(1, 1), priste.Pred(1, 2)))
	if !e.Eval([]int{1, 2}) {
		t.Error("expected true")
	}
	if e.Eval([]int{1, 0}) {
		t.Error("expected false")
	}
}

// TestMobilityPipeline: generate → discretise → train → release with the
// δ-location-set mechanism.
func TestMobilityPipeline(t *testing.T) {
	g, _ := priste.NewGrid(5, 5, 1)
	ds, err := priste.GenerateMobility(priste.MobilityConfig{Grid: g, Days: 8, StepsPerDay: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := priste.TrainChain(ds.States, priste.TrainOptions{States: 25, Smoothing: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := priste.NewDeltaLocationSet(g, chain, priste.UniformDistribution(25), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	region, err := priste.RegionOf(25, ds.Work)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := priste.NewPresence(region, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	fw, err := priste.NewFramework(mech, priste.Homogeneous(chain), []priste.Event{ev},
		priste.DefaultConfig(1.0, 1.0), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(ds.States[0][:8]); err != nil {
		t.Fatal(err)
	}
	// Trace round trip through the facade.
	var buf bytes.Buffer
	if err := priste.WriteStates(&buf, ds.States[:2]); err != nil {
		t.Fatal(err)
	}
	back, err := priste.ReadStates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost trajectories: %d", len(back))
	}
}

// TestHMMAdversary: the facade's adversary runs HMM smoothing over
// released observations and localises a user who keeps reporting state 0.
func TestHMMAdversary(t *testing.T) {
	g, _ := priste.NewGrid(3, 1, 1)
	chain, err := priste.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	plm := priste.NewPlanarLaplace(g)
	em, err := plm.Emission(2)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := priste.NewAdversary(chain, priste.UniformDistribution(3), g)
	if err != nil {
		t.Fatal(err)
	}
	col := em.Col(0)
	inf, err := adv.InferLocations([]priste.Vector{col, col, col}, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if inf.MAP[1] != 0 {
		t.Fatalf("adversary posterior mode = %d", inf.MAP[1])
	}
}
