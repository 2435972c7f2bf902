package core

import (
	"errors"
	"math"
	"testing"

	"priste/internal/mat"
	"priste/internal/oracle"
	"priste/internal/qp"
)

// ladderAt enumerates the retry ladder f walks at its next step: each
// budget's emission matrix and the observations checkAll certifies at
// it. The plan carries no cache, and a check draws nothing from the
// session RNG, so the session releases what it would have.
func ladderAt(f *Framework) ([]oracle.Rung, error) {
	cfg := f.plan.cfg
	if f.plan.cache != nil {
		return nil, errors.New("ladderAt needs a plan without a cache")
	}
	opts := qp.ReleaseOptions{Solver: qp.Options{Tol: cfg.QPTol}, Deadline: cfg.QPTimeout}
	var rungs []oracle.Rung
	for j, alpha := 0, cfg.Alpha; j < cfg.MaxAttempts && alpha >= cfg.MinAlpha; j, alpha = j+1, alpha*cfg.Decay {
		em, err := f.mech.Emission(alpha)
		if err != nil {
			return nil, err
		}
		rung := oracle.Rung{Em: em, Accept: make([]bool, f.plan.m)}
		all := true
		for o := range rung.Accept {
			ok, _, _, err := f.checkAll(&StepResult{}, f.t, math.Float64bits(alpha), o, em, opts)
			if err != nil {
				return nil, err
			}
			rung.Accept[o], all = ok, all && ok
		}
		rungs = append(rungs, rung)
		if all { // every draw is released here: no later rung is reached
			break
		}
	}
	return rungs, nil
}

// effectiveLoss returns the largest loss, over the reference's sessions
// and events, of each kind of column Columns gives.
func effectiveLoss(t *testing.T, ref *reference, withRejection bool) (tag, public, hidden float64) {
	t.Helper()
	tag, public, hidden = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for _, releases := range ref.ladders {
		var cols [3][]mat.Vector
		for k, r := range releases {
			if r.Rung > len(r.Rungs) || r.Rung < len(r.Rungs) && !r.Rungs[r.Rung].Accept[r.Obs] {
				t.Fatalf("step %d released %d from rung %d, which the enumerated ladder does not accept", k, r.Obs, r.Rung)
			}
			tc, pc, hc := r.Columns(withRejection)
			cols[0], cols[1], cols[2] = append(cols[0], tc), append(cols[1], pc), append(cols[2], hc)
		}
		for _, md := range ref.plan.models {
			for i, out := range []*float64{&tag, &public, &hidden} {
				loss, err := oracle.MaxLoss(md, cols[i])
				if err != nil {
					t.Fatal(err)
				}
				*out = max(*out, loss)
			}
		}
	}
	return tag, public, hidden
}

// checkLadders holds the reference's ladders to what the
// effective-mechanism oracle rests on: the tag columns — the ones the
// engine certifies — lose no more than ε, and with the rejection
// factors dropped the α-public columns lose exactly what they do.
func checkLadders(t *testing.T, sc oracle.Scenario, ref *reference) {
	tag, public, _ := effectiveLoss(t, ref, false)
	if tag > sc.Epsilon*(1+1e-9) {
		t.Errorf("tag columns lose %v > ε = %v", tag, sc.Epsilon)
	}
	if public != tag {
		t.Errorf("without the rejection factors the α-public columns lose %v, the tag columns %v", public, tag)
	}
}

// TestEffectiveMechanismExceedsEpsilon characterises the retry ladder
// as served (ROADMAP item 20): every candidate's column is certified,
// but a release at rung k also says that rungs 0..k−1 rejected, and
// the chance of that depends on the true location. The loss of the
// mechanism that runs — budget public, as every tag and step response
// shows it, or hidden — exceeds ε on these small worlds. The pinned
// maxima are today's; a release loop that certifies what it releases
// (item 20(b)) fails this test, which is then turned into a bound.
func TestEffectiveMechanismExceedsEpsilon(t *testing.T) {
	for _, c := range []struct {
		scenario       string
		public, hidden float64
	}{
		{"ladder-3x3", 0.680592, 0.822504},
		{"ladder-4x4", 2.442063, 1.562459},
	} {
		t.Run(c.scenario, func(t *testing.T) {
			sc := oracle.Lookup(c.scenario)
			tag, public, hidden := effectiveLoss(t, referenceRun(t, sc), true)
			t.Logf("ε = %v: tag columns %.4f, effective α public %.4f, α hidden %.4f", sc.Epsilon, tag, public, hidden)
			if math.Abs(public-c.public) > 1e-6 || math.Abs(hidden-c.hidden) > 1e-6 {
				t.Errorf("effective loss α public %.6f, hidden %.6f; pinned %.6f, %.6f", public, hidden, c.public, c.hidden)
			}
			if public <= sc.Epsilon {
				t.Errorf("the α-public effective mechanism meets ε = %v (%v): the ladder now certifies what it releases", sc.Epsilon, public)
			}
		})
	}
}
