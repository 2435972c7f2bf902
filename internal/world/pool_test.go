package world

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestPooledQuantifierMatchesFresh: a quantifier taken back from the
// model's pool after a full session — renormalised, past the window, B₁
// written — computes what a fresh one does, to the bit: every Check and
// Current vector, LogScale and HistoryFingerprint at every t, on every
// path TestGoldenBits runs. The session replayed on both is golden session 3, whose
// 1e-130 column forces a renormalisation.
func TestPooledQuantifierMatchesFresh(t *testing.T) {
	for _, p := range goldenPlans {
		for _, r := range p.runs() {
			t.Run(p.name+"/"+r.name, func(t *testing.T) {
				md := p.model(t, r)
				end := md.end
				if p.steps <= end+2 {
					t.Fatalf("%d steps never reach B₁ (window ends at %d)", p.steps, end)
				}
				run := func(q *Quantifier) (lines []string, renormalised bool) {
					rng := rand.New(rand.NewSource(1003))
					for step := 0; step < p.steps; step++ {
						at := fmt.Sprintf("t%d ", step)
						chk := q.CheckTrusted(goldenColumn(rng, md.States(), 3, step))
						lines = append(lines, bitsLine(at+"check.b", chk.BTilde), bitsLine(at+"check.c", chk.CTilde))
						q.CommitTaggedTrusted(goldenColumn(rng, md.States(), 3, step), uint64(step)+1, step)
						cur := q.Current()
						lines = append(lines, bitsLine(at+"current.b", cur.BTilde), bitsLine(at+"current.c", cur.CTilde),
							fmt.Sprintf("%slogscale %016x", at, math.Float64bits(q.LogScale())),
							fmt.Sprintf("%sfingerprint %016x", at, q.HistoryFingerprint()))
						renormalised = renormalised || q.LogScale() != 0
					}
					return lines, renormalised
				}

				fresh := NewQuantifier(md) // the pool is empty: new storage
				want, renormalised := run(fresh)
				if !renormalised {
					t.Fatal("the session never renormalised")
				}
				// Put the used quantifier back until the pool hands it out
				// again: under the race detector sync.Pool drops a quarter
				// of what it is given.
				var pooled *Quantifier
				for try := 0; try < 50 && pooled != fresh; try++ {
					fresh.Release()
					pooled = NewQuantifier(md)
				}
				if pooled != fresh {
					t.Fatal("the pool never handed the released quantifier back")
				}
				got, _ := run(pooled)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pooled quantifier differs from a fresh one at %q", strings.Join(strings.Fields(want[i])[:2], " "))
					}
				}
			})
		}
	}
}
