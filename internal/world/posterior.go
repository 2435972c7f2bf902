package world

import (
	"fmt"

	"priste/internal/mat"
)

// EventPosterior returns the Bayesian adversary's belief trajectory: for
// each prefix o₀..o_t of the emission columns, Pr(EVENT | o₀..o_t) under
// the fixed initial probability pi. This is the inference the paper's
// introduction warns about — a geo-indistinguishable mechanism leaks the
// event through the *sequence* — and the quantity PriSTE's guarantee
// bounds relative to the prior Pr(EVENT).
func EventPosterior(md *Model, pi mat.Vector, emissions []mat.Vector) ([]float64, error) {
	if len(pi) != md.m {
		return nil, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	q := NewQuantifier(md)
	defer q.Release()
	out := make([]float64, len(emissions))
	for t, e := range emissions {
		if err := q.Commit(e); err != nil {
			return nil, err
		}
		chk := q.Current()
		joint := pi.Dot(chk.BTilde)
		marg := pi.Dot(chk.CTilde)
		if marg <= 0 {
			return nil, fmt.Errorf("world: observations impossible under pi at t=%d", t)
		}
		out[t] = joint / marg
	}
	return out, nil
}
