package world

import (
	"fmt"
	"math/rand"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
)

// benchSetup builds a w×w-grid quantifier over the paper's event shape.
func benchSetup(b *testing.B, side int) (*Model, []mat.Vector) {
	b.Helper()
	g := grid.MustNew(side, side, 1)
	chain, err := markov.GaussianChain(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	region, err := grid.RegionRange(g.States(), 0, 9)
	if err != nil {
		b.Fatal(err)
	}
	ev := event.MustNewPresence(region, 3, 7)
	md, err := NewModel(NewHomogeneous(chain), ev)
	if err != nil {
		b.Fatal(err)
	}
	plm := lppm.NewPlanarLaplace(g)
	em, err := plm.Emission(1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cols := make([]mat.Vector, 20)
	for i := range cols {
		cols[i] = em.Col(rng.Intn(g.States()))
	}
	return md, cols
}

// BenchmarkQuantifierCommit measures a 20-timestamp session of commits —
// the per-step cost of Algorithm 2's A/B updates: in the window two m×m
// operator products (on this Gaussian chain each two passes through its
// Kronecker factors) and the mask pass, after it one product. Each
// session's quantifier goes back to the pool, so the loop times commits,
// not the allocator.
func BenchmarkQuantifierCommit(b *testing.B) {
	for _, side := range []int{10, 16, 20} {
		b.Run(gridName(side), func(b *testing.B) {
			md, cols := benchSetup(b, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := NewQuantifier(md)
				for _, c := range cols {
					if err := q.Commit(c); err != nil {
						b.Fatal(err)
					}
				}
				q.Release()
			}
		})
	}
}

// BenchmarkQuantifierCheck measures one candidate check (seven m×m
// matrix–vector products in the event window) — the per-attempt cost
// before the QP scan, at the three sizes internal/qp's
// BenchmarkCheckRelease prices the scan at.
func BenchmarkQuantifierCheck(b *testing.B) {
	for _, side := range []int{10, 16, 20} {
		b.Run(gridName(side), func(b *testing.B) {
			md, cols := benchSetup(b, side)
			q := NewQuantifier(md)
			for _, c := range cols[:5] {
				if err := q.Commit(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Check(cols[6]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelBenchCase prices one operator path on the input auto picks it
// for. "gauss/auto" is the daemon's default: commits run as two passes
// over the chain's 20×20 Kronecker factors; "gauss/oracle" is the same
// world on the naive reference loops. "gauss-unfactored/auto" is the
// same matrix in a Varying, which carries no factors: the row
// primitive. "walk/auto" is a lazy random walk, sparse enough for CSR.
type kernelBenchCase struct {
	name    string
	chain   func(g *grid.Grid) (*markov.Chain, error)
	mode    KernelMode
	varying bool
}

func kernelBenchCases() []kernelBenchCase {
	gauss := func(g *grid.Grid) (*markov.Chain, error) { return markov.GaussianChain(g, 1) }
	walk := func(g *grid.Grid) (*markov.Chain, error) { return markov.LazyRandomWalk(g, 0.4) }
	return []kernelBenchCase{
		{name: "chain=gauss/kernel=auto", chain: gauss},
		{name: "chain=gauss/kernel=oracle", chain: gauss, mode: KernelOracle},
		{name: "chain=gauss-unfactored/kernel=auto", chain: gauss, varying: true},
		{name: "chain=walk/kernel=auto", chain: walk},
	}
}

// kernelBenchSide is the side of the map every kernel case runs on: the
// paper's 20×20.
const kernelBenchSide = 20

// benchName is the case's sub-benchmark name, its state count appended.
func (bc kernelBenchCase) benchName() string {
	return fmt.Sprintf("%s/m%d", bc.name, kernelBenchSide*kernelBenchSide)
}

// benchCaseSetup builds the case's model and 20 planar-Laplace emission
// columns.
func benchCaseSetup(b *testing.B, bc kernelBenchCase) (*Model, []mat.Vector) {
	b.Helper()
	g := grid.MustNew(kernelBenchSide, kernelBenchSide, 1)
	chain, err := bc.chain(g)
	if err != nil {
		b.Fatal(err)
	}
	region, err := grid.RegionRange(g.States(), 0, 9)
	if err != nil {
		b.Fatal(err)
	}
	ev := event.MustNewPresence(region, 3, 7)
	var tp TransitionProvider = NewHomogeneous(chain)
	if bc.varying {
		if tp, err = NewVarying([]*mat.Matrix{chain.Matrix()}); err != nil {
			b.Fatal(err)
		}
	}
	md, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: bc.mode})
	if err != nil {
		b.Fatal(err)
	}
	plm := lppm.NewPlanarLaplace(g)
	em, err := plm.Emission(1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cols := make([]mat.Vector, 20)
	for i := range cols {
		cols[i] = em.Col(rng.Intn(g.States()))
	}
	return md, cols
}

// BenchmarkCommit measures the per-timestamp operator update (Theorem
// IV.1) at the paper's m=400 map: one iteration commits a
// 20-step trajectory crossing the window entry, the in-window updates
// and the backward phase, and releases its quantifier to the pool, so
// the loop times commits, not the allocator. commits/sec is the
// per-timestamp rate.
func BenchmarkCommit(b *testing.B) {
	for _, bc := range kernelBenchCases() {
		b.Run(bc.benchName(), func(b *testing.B) {
			md, cols := benchCaseSetup(b, bc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := NewQuantifier(md)
				for _, c := range cols {
					if err := q.Commit(c); err != nil {
						b.Fatal(err)
					}
				}
				q.Release()
			}
			b.ReportMetric(float64(b.N)*float64(len(cols))/b.Elapsed().Seconds(), "commits/sec")
		})
	}
}

// BenchmarkCheck measures one mid-window candidate check, mostly at
// m=400 — the per-attempt cost of the LPPM candidate loop. The check
// path is zero-allocation: b̃/c̃ and every matvec intermediate live in
// quantifier-owned scratch.
func BenchmarkCheck(b *testing.B) {
	for _, bc := range kernelBenchCases() {
		b.Run(bc.benchName(), func(b *testing.B) {
			md, cols := benchCaseSetup(b, bc)
			q := NewQuantifier(md)
			for _, c := range cols[:5] {
				if err := q.Commit(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Check(cols[6]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrior measures Lemma III.1 (suffix products at model build).
func BenchmarkPrior(b *testing.B) {
	for _, side := range []int{10, 20} {
		b.Run(gridName(side), func(b *testing.B) {
			md, _ := benchSetup(b, side)
			pi := markov.Uniform(md.States())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := md.Prior(pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func gridName(side int) string { return fmt.Sprintf("%dx%d", side, side) }
