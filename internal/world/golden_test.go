package world

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

// The goldens under testdata/ were written by goldenTrace, and every
// other equivalence test compares today's paths with each other; this
// one compares them with the code that wrote the files, so a diff here
// means a release could move. walk5_pattern.golden was written at
// commit 91f6978 — the last one whose quantifier stored A_F/A_T
// untransposed and multiplied through the blocked, naive, banded and
// CSR kernels — after checking there that all four kernel modes
// produced the same lines, and is never regenerated.
//
// gauss10_presence was regenerated once, by the change after e887bc6
// that builds markov.GaussianChain as K_y ⊗ K_x and commits through the
// factors under auto. Building the chain from its axis kernels moved
// its entries by about an ulp, so gauss10_presence.golden holds the new
// chain under the dense, sparse and oracle modes of the time, which
// agreed bit for bit (it now holds the oracle, and auto on the matrix
// without its factors); the largest relative difference from the old
// file's values is 3.8e-15. gauss10_presence.auto.golden holds auto's
// factored commits, which differ from the oracle's lines by at most
// 1.7e-15 relative (TestFactoredMatchesOracle bounds that gap) with
// identical fingerprints.

// goldenPlan is one (chain, event) pair and the seeded sessions traced
// over it.
type goldenPlan struct {
	name     string
	steps    int
	sessions int
	build    func(t *testing.T) (TransitionProvider, event.Event)
	// factored marks a chain that carries Kronecker factors: auto
	// commits through them and is held to its own golden.
	factored bool
}

// goldenRun is one path a plan is driven through: auto on the plan's
// own provider, auto on its matrix in a Varying, or the oracle.
type goldenRun struct {
	name string
	mode KernelMode
	// varying wraps the plan's matrix in a Varying, which carries no
	// Kronecker factors: a factored chain then takes the dense row path.
	varying bool
}

// runs lists the paths a plan is held on: auto and the oracle, plus
// the dense path of a factored chain.
func (p goldenPlan) runs() []goldenRun {
	runs := []goldenRun{{name: "auto"}, {name: "oracle", mode: KernelOracle}}
	if p.factored {
		runs = append(runs, goldenRun{name: "dense", varying: true})
	}
	return runs
}

// factoredUnder reports whether the plan commits through its factors
// on the run's path.
func (p goldenPlan) factoredUnder(r goldenRun) bool {
	return p.factored && r.mode == KernelAuto && !r.varying
}

// goldenFile names the golden a run is held to.
func (p goldenPlan) goldenFile(r goldenRun) string {
	if p.factoredUnder(r) {
		return p.name + ".auto.golden"
	}
	return p.name + ".golden"
}

// model compiles the plan on the run's path.
func (p goldenPlan) model(t *testing.T, r goldenRun) *Model {
	t.Helper()
	tp, ev := p.build(t)
	if r.varying {
		v, err := NewVarying(tp.DistinctMatrices())
		if err != nil {
			t.Fatal(err)
		}
		tp = v
	}
	md, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: r.mode})
	if err != nil {
		t.Fatal(err)
	}
	return md
}

var goldenPlans = []goldenPlan{
	{
		// The unique-mid benchmark workload's plan (the daemon default).
		name: "gauss10_presence", steps: 12, sessions: 4, factored: true,
		build: func(t *testing.T) (TransitionProvider, event.Event) {
			g := grid.MustNew(10, 10, 1)
			chain, err := markov.GaussianChain(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			region, err := grid.RegionRange(g.States(), 0, 9)
			if err != nil {
				t.Fatal(err)
			}
			return NewHomogeneous(chain), event.MustNewPresence(region, 3, 7)
		},
	},
	{
		// A PATTERN over a structurally sparse chain: CSR under auto.
		name: "walk5_pattern", steps: 10, sessions: 4,
		build: func(t *testing.T) (TransitionProvider, event.Event) {
			g := grid.MustNew(5, 5, 1)
			chain, err := markov.LazyRandomWalk(g, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			var regions []*grid.Region
			for _, r := range [][2]int{{0, 9}, {5, 14}, {10, 19}} {
				region, err := grid.RegionRange(g.States(), r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				regions = append(regions, region)
			}
			return NewHomogeneous(chain), event.MustNewPattern(regions, 2)
		},
	},
}

// goldenColumn draws one emission column. Session 2 zeroes about half
// the entries (the skip paths); session 3 crushes step 2's magnitude so
// the trace crosses a renormalisation and LogScale leaves zero.
func goldenColumn(rng *rand.Rand, m, session, step int) mat.Vector {
	col := randomEmissionColumn(rng, m)
	for i := range col {
		if session == 2 && rng.Intn(2) == 0 {
			col[i] = 0
		}
	}
	if session == 3 && step == 2 {
		col.Scale(1e-130)
	}
	return col
}

func bitsLine(label string, v mat.Vector) string {
	var sb strings.Builder
	sb.WriteString(label)
	for _, x := range v {
		fmt.Fprintf(&sb, " %016x", math.Float64bits(x))
	}
	return sb.String()
}

// goldenTrace drives the plan's sessions on one path and returns one line per recorded quantity: per step the b̃/c̃ of one
// CheckTrusted, then — after committing a different column — Current's
// b̃/c̃, LogScale and the history fingerprint. It fails if the model's
// commits did or did not run factored against the plan's declaration.
func goldenTrace(t *testing.T, p goldenPlan, r goldenRun) []string {
	t.Helper()
	md := p.model(t, r)
	m := md.States()
	var lines []string
	for s := 0; s < p.sessions; s++ {
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		q := NewQuantifier(md)
		for step := 0; step < p.steps; step++ {
			at := fmt.Sprintf("s%d t%d ", s, step)
			chk := q.CheckTrusted(goldenColumn(rng, m, s, step))
			lines = append(lines, bitsLine(at+"check.b", chk.BTilde), bitsLine(at+"check.c", chk.CTilde))
			q.CommitTaggedTrusted(goldenColumn(rng, m, s, step), uint64(step)+1, step%m)
			cur := q.Current()
			lines = append(lines, bitsLine(at+"current.b", cur.BTilde), bitsLine(at+"current.c", cur.CTilde),
				fmt.Sprintf("%slogscale %016x", at, math.Float64bits(q.LogScale())),
				fmt.Sprintf("%sfingerprint %016x", at, q.HistoryFingerprint()))
		}
	}
	if factored := md.KernelStats().Factored > 0; factored != p.factoredUnder(r) {
		t.Fatalf("%s on %s: factored commits %v", p.name, r.name, factored)
	}
	return lines
}

// TestGoldenBits holds every path to its golden trace, bit for bit.
func TestGoldenBits(t *testing.T) {
	for _, p := range goldenPlans {
		for _, r := range p.runs() {
			t.Run(p.name+"/"+r.name, func(t *testing.T) {
				golden, err := os.ReadFile(filepath.Join("testdata", p.goldenFile(r)))
				if err != nil {
					t.Fatal(err)
				}
				want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
				got := goldenTrace(t, p, r)
				if len(got) != len(want) {
					t.Fatalf("%d lines, golden has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						label := strings.SplitN(want[i], " ", 4)
						t.Fatalf("line %d (%s) differs from the golden", i+1, strings.Join(label[:3], " "))
					}
				}
			})
		}
	}
}
