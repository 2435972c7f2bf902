// Package oracle is the reference side of the release loop's
// differential tests: one table of scenarios, the Ledger every view of a
// session must rebuild to, and the effective-mechanism oracle of the
// retry ladder (effective.go).
//
// A scenario fixes everything a release depends on — map, mobility
// chain and how it is handed over, mechanism, PRESENCE events, ε and
// α, seeds and the location walk — so the engine's tests (package core,
// which runs the reference: world.KernelOracle, no cache, serial
// kernels, one fresh session per seed) and the service's (package
// server) build the same sessions from one row. The package imports neither of
// them, so core's internal tests can import it too. Only test files
// import it: no binary links the reference code.
package oracle

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/world"
)

// Scenario is one world, mechanism and set of sessions. Its chain is
// markov.GaussianChain(g, Sigma) — the daemon's, which carries its
// Kronecker factors — when Sigma is set, markov.LazyRandomWalk(g, Stay)
// — sparse — when Stay is, and with both the two in turn, G, W, G, W.
type Scenario struct {
	Name        string
	W, H        int
	Sigma, Stay float64
	// Varying hands the chain over in a world.Varying, which carries no
	// Kronecker factors; two chains always are.
	Varying bool
	// Delta selects the δ-location-set mechanism (uniform prior) when
	// positive; 0 is the planar Laplace mechanism.
	Delta float64
	// Events are PRESENCE events in eventspec form, LO-HI@START-END.
	Events         []string
	Epsilon, Alpha float64
	MaxAttempts    int // 0: the engine's default
	Seeds          []int64
	Steps          int
}

func seeds(from int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

// Scenarios is the table. Every Name is unique.
var Scenarios = []Scenario{
	// The 3×3 world of core's framework tests: a budget most first
	// candidates meet, and one tight enough to force rejections and
	// uniform fallbacks.
	{Name: "mixed", W: 3, H: 3, Sigma: 1, Events: []string{"0-2@2-3"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(1, 8), Steps: 6},
	{Name: "tight", W: 3, H: 3, Sigma: 1, Events: []string{"0-2@2-3"}, Epsilon: 0.05, Alpha: 1, MaxAttempts: 6, Seeds: seeds(1, 8), Steps: 6},
	// Both mechanisms on one small world.
	{Name: "laplace-5x5", W: 5, H: 5, Sigma: 1, Events: []string{"0-6@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{42, 43}, Steps: 12},
	{Name: "delta-5x5", W: 5, H: 5, Sigma: 1, Delta: 0.05, Events: []string{"0-6@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{42, 43}, Steps: 12},
	// The served chain as m grows; fewer sessions where a step is dear
	// (the QP at m = 100, the oracle's naive 256³ products).
	{Name: "6x6", W: 6, H: 6, Sigma: 1, Events: []string{"0-5@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(7000, 32), Steps: 12},
	{Name: "10x10", W: 10, H: 10, Sigma: 1, Events: []string{"0-9@3-7"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(7000, 8), Steps: 12},
	{Name: "10x10-two-events", W: 10, H: 10, Sigma: 1, Events: []string{"0-9@3-7", "40-59@5-9"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(7000, 4), Steps: 12},
	{Name: "16x16-dense", W: 16, H: 16, Sigma: 1, Events: []string{"0-127@3-7"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(7000, 2), Steps: 12},
	// Each of auto's operator paths, reached through the input that
	// selects it, and a world whose steps alternate two of them.
	{Name: "factored", W: 10, H: 10, Sigma: 1, Events: []string{"0-9@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{7}, Steps: 14},
	{Name: "row", W: 10, H: 10, Sigma: 1, Varying: true, Events: []string{"0-9@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{7}, Steps: 14},
	{Name: "csr", W: 10, H: 10, Stay: 0.4, Events: []string{"0-9@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{7}, Steps: 14},
	{Name: "dense-sparse", W: 10, H: 10, Sigma: 1, Stay: 0.4, Events: []string{"0-9@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{42}, Steps: 14},
	// Three irregular worlds, named for the seeds a random generator drew
	// them from: odd grid shapes, both chain families, windows and
	// budgets off the defaults, all without Kronecker factors.
	{Name: "seed=1", W: 5, H: 7, Sigma: 1.157, Varying: true, Events: []string{"15-24@2-3"}, Epsilon: 0.368, Alpha: 1, Seeds: []int64{1}, Steps: 8},
	{Name: "seed=17", W: 5, H: 7, Sigma: 0.614, Varying: true, Events: []string{"24-33@2-4"}, Epsilon: 0.912, Alpha: 1, Seeds: []int64{17}, Steps: 16},
	{Name: "seed=202", W: 6, H: 5, Stay: 0.625, Varying: true, Events: []string{"8-17@3-6"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{202}, Steps: 14},
	// The service's test world (server.testConfig), both mechanisms:
	// the server variants host these sessions side by side.
	{Name: "served", W: 6, H: 6, Sigma: 1, Events: []string{"0-5@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{11, 22}, Steps: 12},
	{Name: "served-delta", W: 6, H: 6, Sigma: 1, Delta: 0.05, Events: []string{"0-5@2-4"}, Epsilon: 0.5, Alpha: 1, Seeds: []int64{33}, Steps: 12},
	// Small enough (m ≤ 16, T ≤ 4) for the effective-mechanism oracle:
	// PRESENCE on the map's first row at t = 1–2.
	{Name: "ladder-3x3", W: 3, H: 3, Sigma: 1, Events: []string{"0-2@1-2"}, Epsilon: 0.5, Alpha: 1, Seeds: seeds(1, 12), Steps: 4},
	{Name: "ladder-4x4", W: 4, H: 4, Sigma: 1, Events: []string{"0-3@1-2"}, Epsilon: 1, Alpha: 2, Seeds: seeds(1, 12), Steps: 4},
}

// Lookup returns the scenario called name; it panics on an unknown name.
func Lookup(name string) Scenario {
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc
		}
	}
	panic(fmt.Sprintf("oracle: no scenario %q", name))
}

// M is the number of map states.
func (s Scenario) M() int { return s.W * s.H }

// Small reports whether the effective-mechanism oracle covers s: m ≤ 16
// and T ≤ 4, where enumerating every rung's acceptance set is cheap, and
// the planar Laplace mechanism, whose emission at a budget does not
// depend on the session's history.
func (s Scenario) Small() bool { return s.M() <= 16 && s.Steps <= 4 && s.Delta == 0 }

// Grid is s's map, in 1 km cells.
func (s Scenario) Grid() *grid.Grid { return grid.MustNew(s.W, s.H, 1) }

// chains is the Gaussian chain, the lazy walk or both.
func (s Scenario) chains(t testing.TB) []*markov.Chain {
	t.Helper()
	var out []*markov.Chain
	add := func(c *markov.Chain, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	if s.Sigma != 0 {
		add(markov.GaussianChain(s.Grid(), s.Sigma))
	}
	if s.Stay != 0 {
		add(markov.LazyRandomWalk(s.Grid(), s.Stay))
	}
	return out
}

// World is s's transition provider.
func (s Scenario) World(t testing.TB) world.TransitionProvider {
	t.Helper()
	chains := s.chains(t)
	if len(chains) == 1 && !s.Varying {
		return world.NewHomogeneous(chains[0])
	}
	var ms []*mat.Matrix
	for range chains { // one chain once; two in turn, twice
		for _, c := range chains {
			ms = append(ms, c.Matrix())
		}
	}
	v, err := world.NewVarying(ms)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// ParseEvents parses s.Events as the service does.
func (s Scenario) ParseEvents(t testing.TB) []event.Event {
	t.Helper()
	evs, err := eventspec.ParseAll(s.Events, s.M(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// Mechanism returns a factory for s's mechanism: one planar Laplace
// instance shared by every call, or a fresh δ-location-set each call
// (its state is the session's).
func (s Scenario) Mechanism(t testing.TB) func() (lppm.Perturber, error) {
	t.Helper()
	g := s.Grid()
	if s.Delta == 0 {
		plm := lppm.NewPlanarLaplace(g)
		return func() (lppm.Perturber, error) { return plm, nil }
	}
	chain := s.chains(t)[0]
	return func() (lppm.Perturber, error) {
		return lppm.NewDeltaLocationSet(g, chain, markov.Uniform(s.M()), s.Delta)
	}
}

// Walk is the true-location walk of s's session with the given seed.
func (s Scenario) Walk(seed int64) []int { return Walk(seed, s.M(), s.Steps) }

// Walk returns steps locations drawn uniformly from m states by a PCG
// seeded with seed.
func Walk(seed int64, m, steps int) []int {
	rng := rand.New(rand.NewPCG(uint64(seed), 99))
	locs := make([]int, steps)
	for i := range locs {
		locs[i] = rng.IntN(m)
	}
	return locs
}

// Tag is one committed release as a session's log holds it: the
// float64 bits of its budget (0 for the uniform fallback) and the
// observation.
type Tag struct {
	AlphaBits uint64
	Obs       int
}

// Step is what one released timestamp shows a client, and the session's
// history fingerprint after it.
type Step struct {
	T, Obs       int
	AlphaBits    uint64
	Attempts     int
	Conservative int
	Uniform      bool
	Fingerprint  uint64
}

// Ledger is one session's released history. It is the law: every view
// of the session — kernel, cache, deferral, width, restore, transport —
// must rebuild to the same one.
type Ledger struct {
	Steps       []Step
	Tags        []Tag
	Fingerprint uint64
}

// Diff describes the first difference between l and want; it is empty
// when there is none.
func (l Ledger) Diff(want Ledger) string {
	if len(l.Steps) != len(want.Steps) || len(l.Tags) != len(want.Tags) {
		return fmt.Sprintf("%d steps and %d tags, want %d and %d", len(l.Steps), len(l.Tags), len(want.Steps), len(want.Tags))
	}
	for k := range l.Steps {
		if l.Steps[k] != want.Steps[k] {
			return fmt.Sprintf("step %d: %+v, want %+v", k, l.Steps[k], want.Steps[k])
		}
	}
	for k := range l.Tags {
		if l.Tags[k] != want.Tags[k] {
			return fmt.Sprintf("tag %d: %+v, want %+v", k, l.Tags[k], want.Tags[k])
		}
	}
	if l.Fingerprint != want.Fingerprint {
		return fmt.Sprintf("fingerprint %#x, want %#x", l.Fingerprint, want.Fingerprint)
	}
	return ""
}

// Consistent checks that l agrees with itself: step k is timestamp k and
// released tag k, the uniform flag marks exactly the zero budget, and
// every fingerprint folds the tags before it from world.FingerprintSeed.
func (l Ledger) Consistent() error {
	if len(l.Steps) != len(l.Tags) {
		return fmt.Errorf("%d steps, %d tags", len(l.Steps), len(l.Tags))
	}
	fp := world.FingerprintSeed
	for k, s := range l.Steps {
		fp = world.FingerprintFold(fp, l.Tags[k].AlphaBits, l.Tags[k].Obs)
		switch {
		case s.T != k:
			return fmt.Errorf("step %d released timestamp %d", k, s.T)
		case (Tag{s.AlphaBits, s.Obs}) != l.Tags[k]:
			return fmt.Errorf("step %d released %d at %#x, tag %+v", k, s.Obs, s.AlphaBits, l.Tags[k])
		case s.Uniform != (s.AlphaBits == 0):
			return fmt.Errorf("step %d: uniform %v at budget bits %#x", k, s.Uniform, s.AlphaBits)
		case s.Fingerprint != fp:
			return fmt.Errorf("step %d: fingerprint %#x, tags fold to %#x", k, s.Fingerprint, fp)
		}
	}
	if l.Fingerprint != fp {
		return fmt.Errorf("fingerprint %#x, tags fold to %#x", l.Fingerprint, fp)
	}
	return nil
}
