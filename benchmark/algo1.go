package main

import (
	"math"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// algo1Counts are the exact (bit-repeatable for a seed) counts of one
// re-execution of Algorithm 1.
type algo1Counts struct {
	steps    int
	attempts int     // candidate draws, the released one included
	qpCalls  int     // qp.CheckRelease calls
	accepted int     // candidates certified and released
	unknown  int     // conditions the solver could not decide within its node budget
	uniform  int     // steps that fell back to the uniform release
	alphaSum float64 // sum of released budgets (0 for a uniform release)
}

func (c *algo1Counts) add(o algo1Counts) {
	c.steps += o.steps
	c.attempts += o.attempts
	c.qpCalls += o.qpCalls
	c.accepted += o.accepted
	c.unknown += o.unknown
	c.uniform += o.uniform
	c.alphaSum += o.alphaSum
}

// algo1 re-executes the release loop of core.Framework.Step for one user
// from exported layer calls only — Perturber.Emission, lppm.SampleRow,
// Quantifier.CheckTrusted, qp.CheckRelease, CommitTaggedTrusted — with a
// span around each, no cert cache, and the engine's own defaults (decay
// 1/2, 40 attempts, budget floor α·2⁻³⁰). Its releases must equal the
// service's tag for tag.
func (e *engine) algo1(tr *tracer, md *world.Model, id string, u user) ([]api.ReleaseTag, algo1Counts, error) {
	const (
		decay       = 0.5
		maxAttempts = 40
	)
	minAlpha := e.cfg.Alpha * math.Pow(2, -30)
	q := world.NewQuantifier(md)
	rng := core.NewSessionRNG(u.seed)
	buf := mat.NewVector(e.in.g.States())
	var counts algo1Counts
	tags := make([]api.ReleaseTag, 0, len(u.traj))

	for t, loc := range u.traj {
		step := tr.begin("algo1.step", -1, id, t)
		if err := e.mech.Begin(t); err != nil {
			return nil, counts, err
		}
		counts.steps++
		released := false
		alpha := e.cfg.Alpha
		for attempt := 1; attempt <= maxAttempts && alpha >= minAlpha; attempt++ {
			counts.attempts++
			sp := tr.begin("lppm.emission", step, id, t)
			em, err := e.mech.Emission(alpha)
			tr.end(sp)
			if err != nil {
				return nil, counts, err
			}
			sp = tr.begin("lppm.sample", step, id, t)
			obs, err := lppm.SampleRow(rng, em, loc)
			tr.end(sp)
			if err != nil {
				return nil, counts, err
			}
			col := em.ColInto(buf, obs)

			sp = tr.begin("world.check", step, id, t)
			chk := q.CheckTrusted(col)
			tr.end(sp)
			chk.Epsilon = e.cfg.Epsilon

			sp = tr.begin("qp.check_release", step, id, t)
			dec, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
			tr.end(sp)
			if err != nil {
				return nil, counts, err
			}
			counts.qpCalls++
			if dec.Eq15.Verdict == qp.Unknown || dec.Eq16.Verdict == qp.Unknown {
				counts.unknown++
			}
			if dec.OK {
				sp = tr.begin("world.commit", step, id, t)
				q.CommitTaggedTrusted(col, math.Float64bits(alpha), obs)
				tr.end(sp)
				counts.accepted++
				counts.alphaSum += alpha
				tags = append(tags, api.ReleaseTag{AlphaBits: math.Float64bits(alpha), Obs: obs})
				released = true
				break
			}
			alpha *= decay
		}
		if !released {
			counts.attempts++
			counts.uniform++
			obs, err := lppm.SampleRow(rng, e.uniformEm, loc)
			if err != nil {
				return nil, counts, err
			}
			sp := tr.begin("world.commit", step, id, t)
			q.CommitTaggedTrusted(e.uniformCol, 0, obs)
			tr.end(sp)
			tags = append(tags, api.ReleaseTag{Obs: obs})
		}
		tr.end(step)
	}
	return tags, counts, nil
}
