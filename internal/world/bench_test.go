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

// BenchmarkQuantifierCommit measures one committed timestamp (two m×m
// multiplications) — the per-step cost of Algorithm 2's A/B updates.
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

// kernelBenchCase is one mobility-chain/kernel combination at m=400.
// "gauss/dense" is the structurally dense worst case on the adaptive
// dense dispatch (banded early, naive-skip on masked operators, blocked
// register-tiled on full ones); "gauss/oracle" is the same world on the
// naive reference kernels — their ratio is the adaptive speedup.
// "trunc/sparse" is the serving configuration (pristed -sparse-cutoff):
// negligible Gaussian tails dropped at chain build, the quantifier on
// CSR kernels; "trunc/dense" runs the same banded chain through the
// adaptive dense dispatch, where the small transition bandwidth keeps
// products banded for several commits. The walk pair compares the two
// kernel paths over one identical (bit-equivalent) sparse world.
type kernelBenchCase struct {
	name  string
	chain func(g *grid.Grid) (*markov.Chain, error)
	mode  KernelMode
}

func kernelBenchCases() []kernelBenchCase {
	gauss := func(g *grid.Grid) (*markov.Chain, error) { return markov.GaussianChain(g, 1) }
	trunc := func(g *grid.Grid) (*markov.Chain, error) {
		c, err := markov.GaussianChain(g, 1)
		if err != nil {
			return nil, err
		}
		return c.Sparsified(1e-4)
	}
	walk := func(g *grid.Grid) (*markov.Chain, error) { return markov.LazyRandomWalk(g, 0.4) }
	return []kernelBenchCase{
		{"chain=gauss/kernel=dense", gauss, KernelDense},
		{"chain=gauss/kernel=oracle", gauss, KernelOracle},
		{"chain=trunc/kernel=sparse", trunc, KernelSparse},
		{"chain=trunc/kernel=dense", trunc, KernelDense},
		{"chain=walk/kernel=dense", walk, KernelDense},
		{"chain=walk/kernel=sparse", walk, KernelSparse},
	}
}

// benchCaseSetup builds the case's 20×20 (m=400) model and 20
// planar-Laplace emission columns.
func benchCaseSetup(b *testing.B, bc kernelBenchCase) (*Model, []mat.Vector) {
	b.Helper()
	g := grid.MustNew(20, 20, 1)
	chain, err := bc.chain(g)
	if err != nil {
		b.Fatal(err)
	}
	region, err := grid.RegionRange(g.States(), 0, 9)
	if err != nil {
		b.Fatal(err)
	}
	ev := event.MustNewPresence(region, 3, 7)
	md, err := NewModelWithOptions(NewHomogeneous(chain), ev, ModelOptions{Kernel: bc.mode})
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
// IV.1) at the paper's m=400 map: one iteration commits a 20-step
// trajectory crossing the window entry, the in-window updates and the
// backward phase. commits/sec is the per-timestamp rate.
func BenchmarkCommit(b *testing.B) {
	for _, bc := range kernelBenchCases() {
		b.Run(bc.name+"/m400", func(b *testing.B) {
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
			}
			b.ReportMetric(float64(b.N)*float64(len(cols))/b.Elapsed().Seconds(), "commits/sec")
		})
	}
}

// BenchmarkCheck measures one mid-window candidate check at m=400 —
// the per-attempt cost of the LPPM candidate loop. The check path is
// zero-allocation: b̃/c̃ and every matvec intermediate live in
// quantifier-owned scratch.
func BenchmarkCheck(b *testing.B) {
	for _, bc := range kernelBenchCases() {
		b.Run(bc.name+"/m400", func(b *testing.B) {
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

// BenchmarkShadowCheck measures the float32 shadow candidate check
// against the exact float64 check on identical warm mid-window state,
// over the structurally dense Gaussian world. The shadow matvecs move
// half the bytes, so the gap widens with m as the operators outgrow
// cache: ~6% at m=400, ~1.4× at m=900. fallback-rate is the fraction of
// iterations the shadow path could not serve (always 0 here — operators
// are warm and nonzero; the qp-margin fallback is a core-layer
// decision, reported by /statsz shadow_fallbacks).
func BenchmarkShadowCheck(b *testing.B) {
	for _, side := range []int{20, 30} {
		g := grid.MustNew(side, side, 1)
		m := g.States()
		chain, err := markov.GaussianChain(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		region, err := grid.RegionRange(m, 0, 9)
		if err != nil {
			b.Fatal(err)
		}
		ev := event.MustNewPresence(region, 3, 7)
		md, err := NewModelWithOptions(NewHomogeneous(chain), ev, ModelOptions{Kernel: KernelDense, Shadow: true})
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
			cols[i] = em.Col(rng.Intn(m))
		}
		q := NewQuantifier(md)
		for _, c := range cols[:5] {
			if err := q.Commit(c); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := q.ShadowCheck(cols[6]); !ok {
			b.Fatal("shadow path unavailable")
		}
		b.Run(fmt.Sprintf("path=exact/m%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.CheckTrusted(cols[6])
			}
		})
		b.Run(fmt.Sprintf("path=shadow/m%d", m), func(b *testing.B) {
			var fallbacks int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := q.ShadowCheck(cols[6]); !ok {
					fallbacks++
				}
			}
			b.ReportMetric(float64(fallbacks)/float64(b.N), "fallback-rate")
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
