package world

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/mat"
	"priste/internal/qp"
)

// These tests close the loop between the three layers of the release
// check: the quantifier's (ã, b̃, c̃) vectors, the QP solver's verdicts
// over all priors, and the realised privacy loss at specific priors.

// randomEmissionColumn draws a random positive likelihood column.
func randomEmissionColumn(rng *rand.Rand, m int) mat.Vector {
	c := mat.NewVector(m)
	for i := range c {
		c[i] = 0.05 + rng.Float64()
	}
	return c
}

// TestQPVerdictMatchesRealizedLoss: when CheckRelease certifies a
// candidate, no sampled prior may realise a loss beyond ε; when it reports
// a violation, the violating prior it returns must realise a loss beyond ε.
func TestQPVerdictMatchesRealizedLoss(t *testing.T) {
	c := paperChain()
	tp := NewHomogeneous(c)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ev := randomEvent(rng)
		md, err := NewModel(tp, ev)
		if err != nil {
			return false
		}
		q := NewQuantifier(md)
		// Commit a random prefix.
		for k := rng.Intn(4); k > 0; k-- {
			if err := q.Commit(randomEmissionColumn(rng, 3)); err != nil {
				return false
			}
		}
		cand := randomEmissionColumn(rng, 3)
		chk, err := q.Check(cand)
		if err != nil {
			return false
		}
		chk.Epsilon = 0.2 + rng.Float64()
		dec, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
		if err != nil {
			return false
		}
		switch {
		case dec.OK:
			// Probe random priors: none may exceed ε.
			for trial := 0; trial < 30; trial++ {
				pi := mat.NewVector(3)
				for i := range pi {
					pi[i] = rng.ExpFloat64()
				}
				pi.Normalize()
				loss, err := qp.FixedPiLoss(chk, pi)
				if err != nil {
					continue // degenerate prior for this event
				}
				if loss > chk.Epsilon+1e-7 {
					return false
				}
			}
			return true
		case dec.Eq15.Verdict == qp.Violated || dec.Eq16.Verdict == qp.Violated:
			// The violating certificate must realise a loss beyond ε
			// (unless the prior is degenerate there, which FixedPiLoss
			// reports as an error).
			var bad mat.Vector
			if dec.Eq15.Verdict == qp.Violated {
				bad = dec.Eq15.BestPi()
			} else {
				bad = dec.Eq16.BestPi()
			}
			loss, err := qp.FixedPiLoss(chk, bad)
			if err != nil {
				return true // degenerate certificate: cannot compare
			}
			return loss > chk.Epsilon-1e-7
		default:
			return true // Unknown: nothing to verify
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckVectorsMatchBatchComputation: the streaming Check vectors at an
// arbitrary time must reproduce the batch JointAndMarginal values for the
// full sequence, for every probed prior.
func TestCheckVectorsMatchBatchComputation(t *testing.T) {
	c := paperChain()
	tp := NewHomogeneous(c)
	ev := event.MustNewPresence(grid.MustRegionOf(3, 0, 1), 2, 4)
	md := mustModel(t, tp, ev)
	rng := rand.New(rand.NewSource(99))
	cols := make([]mat.Vector, 7)
	for i := range cols {
		cols[i] = randomEmissionColumn(rng, 3)
	}
	q := NewQuantifier(md)
	for i := 0; i < len(cols)-1; i++ {
		if err := q.Commit(cols[i]); err != nil {
			t.Fatal(err)
		}
	}
	chk, err := q.Check(cols[len(cols)-1])
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Exp(q.LogScale())
	for trial := 0; trial < 20; trial++ {
		pi := mat.NewVector(3)
		for i := range pi {
			pi[i] = rng.ExpFloat64()
		}
		pi.Normalize()
		joint, marginal, err := JointAndMarginal(md, pi, cols)
		if err != nil {
			t.Fatal(err)
		}
		gotJoint := pi.Dot(chk.BTilde) * scale
		gotMarg := pi.Dot(chk.CTilde) * scale
		if math.Abs(gotJoint-joint) > 1e-10*math.Max(1, joint) {
			t.Fatalf("joint %v vs batch %v", gotJoint, joint)
		}
		if math.Abs(gotMarg-marginal) > 1e-10*math.Max(1, marginal) {
			t.Fatalf("marginal %v vs batch %v", gotMarg, marginal)
		}
	}
}

// TestEventPosteriorBounds: posteriors are probabilities and converge to
// certainty under perfectly revealing observations.
func TestEventPosteriorBounds(t *testing.T) {
	c := paperChain()
	tp := NewHomogeneous(c)
	ev := event.MustNewPresence(grid.MustRegionOf(3, 0), 1, 2)
	md := mustModel(t, tp, ev)
	pi := mat.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}
	// Identity-like emissions pointing at state 0 during the window.
	sharp := func(s int) mat.Vector {
		col := mat.Vector{0.001, 0.001, 0.001}
		col[s] = 0.998
		return col
	}
	post, err := EventPosterior(md, pi, []mat.Vector{sharp(1), sharp(0), sharp(2)})
	if err != nil {
		t.Fatal(err)
	}
	for t2, p := range post {
		if p < 0 || p > 1 {
			t.Fatalf("posterior[%d] = %v outside [0,1]", t2, p)
		}
	}
	if post[1] < 0.99 {
		t.Fatalf("observing the region at t=1 should pin the event: %v", post[1])
	}
	if _, err := EventPosterior(md, mat.Vector{1, 0}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}
