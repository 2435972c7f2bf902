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

// The goldens under testdata/ were written by goldenTrace at commit
// 91f6978 — the last one whose quantifier stored A_F/A_T untransposed and
// multiplied through the blocked, naive, banded and CSR kernels — after
// checking there that all four kernel modes produced the same lines.
// Every other equivalence test compares today's paths with each other;
// this one compares them with that code, so the files are never
// regenerated: a diff here means a release could move.

// goldenPlan is one (chain, event) pair and the seeded sessions traced
// over it.
type goldenPlan struct {
	name     string
	steps    int
	sessions int
	build    func(t *testing.T) (TransitionProvider, event.Event)
}

var goldenPlans = []goldenPlan{
	{
		// The unique-mid benchmark workload's plan (the daemon default).
		name: "gauss10_presence", steps: 12, sessions: 4,
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
		// A PATTERN over a structurally sparse chain: CSR under auto,
		// banded products under dense.
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

// goldenTrace drives the plan's sessions under one kernel mode and
// returns one line per recorded quantity: per step the b̃/c̃ of one
// CheckTrusted, then — after committing a different column — Current's
// b̃/c̃, LogScale and the history fingerprint.
func goldenTrace(t *testing.T, p goldenPlan, mode KernelMode) []string {
	t.Helper()
	tp, ev := p.build(t)
	md, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: mode})
	if err != nil {
		t.Fatal(err)
	}
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
	return lines
}

// TestGoldenBits holds every kernel mode to the parent-generated traces,
// bit for bit.
func TestGoldenBits(t *testing.T) {
	for _, p := range goldenPlans {
		golden, err := os.ReadFile(filepath.Join("testdata", p.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
		for _, mode := range []KernelMode{KernelAuto, KernelDense, KernelSparse, KernelOracle} {
			t.Run(p.name+"/"+mode.String(), func(t *testing.T) {
				got := goldenTrace(t, p, mode)
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
