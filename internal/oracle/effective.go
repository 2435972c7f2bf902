package oracle

import (
	"errors"
	"math"

	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// Rung is one budget of the retry ladder at a served history: its
// emission matrix (row u is Pr(· | u)) and, per observation, whether the
// engine certifies releasing it there. The accepted set depends only on
// the public history, not on the true location.
type Rung struct {
	Em     *mat.Matrix
	Accept []bool
}

// Release is one served step as an adversary who knows the engine can
// model it: the ladder the engine walks at the step's history, the rung
// the release came from (len(Rungs) for the uniform fallback) and the
// released observation.
type Release struct {
	Rungs []Rung
	Rung  int
	Obs   int
}

// rejected returns r_j(u) = Σ_{o' ∉ A_j} em_j(u, o'), the chance that a
// draw from row u is rejected at rung j.
func (r Rung) rejected(u int) float64 {
	var p float64
	for o, ok := range r.Accept {
		if !ok {
			p += r.Em.At(u, o)
		}
	}
	return p
}

// Columns returns the release's emission column three ways. tag is the
// column the engine certifies: em_k(·, o) of the released rung k, or
// the uniform column for the fallback. public is the column of the
// mechanism that runs when the released budget is public, as it is in
// every tag and step response:
//
//	eff(u) = Π_{j<k} r_j(u) · em_k(u, o),
//
// and hidden the column when it is not, the sum of eff over every rung
// that can release o plus the fallback's share. With withRejection
// false the r_j factors are dropped (each taken as 1), and public is
// the tag column again.
func (r Release) Columns(withRejection bool) (tag, public, hidden mat.Vector) {
	m := r.Rungs[0].Em.Rows
	tag, public, hidden = mat.NewVector(m), mat.NewVector(m), mat.NewVector(m)
	for u := 0; u < m; u++ {
		reach := 1.0 // Π_{j<k} r_j(u): every rung before k rejected
		for k, rung := range r.Rungs {
			em := rung.Em.At(u, r.Obs)
			if rung.Accept[r.Obs] {
				hidden[u] += float64(reach * em)
			}
			if k == r.Rung {
				tag[u], public[u] = em, float64(reach*em)
			}
			if withRejection {
				reach *= rung.rejected(u)
			}
		}
		fallback := float64(reach / float64(m))
		hidden[u] += fallback
		if r.Rung == len(r.Rungs) {
			tag[u], public[u] = 1/float64(m), fallback
		}
	}
	return tag, public, hidden
}

// lambdas is the grid of two-point priors λ·e_a + (1−λ)·e_b.
var lambdas = []float64{0, 0.25, 0.5, 0.75, 1}

// MaxLoss returns Definition II.4's privacy loss of the observation
// columns for md's event, maximised over every prefix of cols and every
// two-point prior on the λ grid; priors under which the loss is
// undefined (the event certain or impossible, or the observations
// impossible) are passed over. The
// value returned is world.PrivacyLoss at the maximising prefix and
// prior; the search commits each prefix once and evaluates every prior
// on it, which is what PrivacyLoss does for one.
func MaxLoss(md *world.Model, cols []mat.Vector) (float64, error) {
	m := md.States()
	q := world.NewQuantifier(md)
	defer q.Release()
	best, bestK := math.Inf(-1), 0
	var bestPi mat.Vector
	pi := mat.NewVector(m)
	for k, col := range cols {
		if err := q.Commit(col); err != nil {
			return 0, err
		}
		chk := q.Current()
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				for _, l := range lambdas {
					clear(pi)
					pi[a], pi[b] = l, 1-l
					loss, err := qp.FixedPiLoss(chk, pi)
					if err == nil && loss > best {
						best, bestK, bestPi = loss, k+1, append(bestPi[:0], pi...)
					}
				}
			}
		}
	}
	if bestPi == nil {
		return 0, errors.New("oracle: no two-point prior leaves the event uncertain")
	}
	return world.PrivacyLoss(md, bestPi, cols[:bestK])
}
