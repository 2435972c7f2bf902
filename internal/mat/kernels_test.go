package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// special are the values a kernel lane must treat as the Go body does:
// signed zeros, the smallest subnormal, +Inf and NaN.
var special = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}

// sprinkle overwrites about one entry in eight of v with a special value.
func sprinkle(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.IntN(8) == 0 {
			v[i] = special[rng.IntN(len(special))]
		}
	}
}

// sameOrNaN reports whether a and b are the same bits, or both NaN: a NaN
// that two NaN operands produce carries the payload of whichever the
// instruction reads first, which the compiler's operand order decides, and
// no release depends on it.
func sameOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

type screenBody struct {
	name string
	run  func(ai, wi, qi float64, a, w, q []float64) int
}

// screenBodies returns the bodies of the edge screen this machine can run:
// always the Go body, plus — when init turned the assembly on — the
// dispatching ScreenEdges, whose groups of four run in assembly.
func screenBodies(t testing.TB) []screenBody {
	bodies := []screenBody{{"go", screenEdgesGo}}
	if !useAVX2 {
		t.Log("no AVX2 on this machine: assembly body not exercised")
		return bodies
	}
	return append(bodies, screenBody{"avx2", ScreenEdges})
}

type maskBody struct {
	name string
	run  func(f, t, x, y []float64, ft, tt, e float64) (fMax, tMax float64)
}

// maskBodies is screenBodies for the mask epilogue.
func maskBodies(t testing.TB) []maskBody {
	bodies := []maskBody{{"go", maskRowGo}}
	if !useAVX2 {
		t.Log("no AVX2 on this machine: assembly body not exercised")
		return bodies
	}
	return append(bodies, maskBody{"avx2", MaskRow})
}

// edgePasses is the scan's test for one pair, written out once more as
// the definition both bodies are held to.
func edgePasses(ai, wi, qi, aj, wj, qj float64) bool {
	da, dw := aj-ai, wj-wi
	qa := da * dw
	qb := float64(ai*dw) + float64(wi*da) + (qj - qi)
	return qa < 0 && qb > 0 && qb < -2*qa
}

// firstPass is ScreenEdges' contract from the definition.
func firstPass(ai, wi, qi float64, a, w, q []float64) int {
	for k := range a {
		if edgePasses(ai, wi, qi, a[k], w[k], q[k]) {
			return k
		}
	}
	return len(a)
}

// conditionShaped returns n (a, w, q) triples shaped like a release
// condition's: a ∈ [0, 1], w and q of either sign.
func conditionShaped(rng *rand.Rand, n int) (a, w, q []float64) {
	a, w, q = make([]float64, n), make([]float64, n), make([]float64, n)
	for k := range a {
		a[k] = rng.Float64()
		w[k] = 4*rng.Float64() - 2
		q[k] = 2*rng.Float64() - 1
	}
	return a, w, q
}

// TestScreenEdgesBodiesMatch holds both bodies of the edge screen to the
// scan's test: from every start of random condition-shaped tails (with
// and without special values, and with a special row), on tails where
// only one planted pair — or none — passes, at every n mod 4.
func TestScreenEdgesBodiesMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	bodies := screenBodies(t)
	check := func(label string, ai, wi, qi float64, a, w, q []float64) {
		t.Helper()
		want := firstPass(ai, wi, qi, a, w, q)
		for _, body := range bodies {
			if got := body.run(ai, wi, qi, a, w, q); got != want {
				t.Fatalf("%s %s: first passing pair %d, want %d", body.name, label, got, want)
			}
		}
	}
	passes := 0
	for n := 0; n <= 41; n++ {
		for rep := 0; rep < 6; rep++ {
			a, w, q := conditionShaped(rng, n)
			ai, wi, qi := rng.Float64(), 4*rng.Float64()-2, 2*rng.Float64()-1
			if rep >= 2 {
				sprinkle(rng, a)
				sprinkle(rng, w)
				sprinkle(rng, q)
			}
			if rep == 5 {
				ai = special[rng.IntN(len(special))]
			}
			for s := 0; s <= n; s++ {
				if firstPass(ai, wi, qi, a[s:], w[s:], q[s:]) < n-s {
					passes++
				}
				check(fmt.Sprintf("n=%d rep=%d start=%d", n, rep, s), ai, wi, qi, a[s:], w[s:], q[s:])
			}
		}
		// Every pair is flat in a (A = 0) but the one planted at p:
		// Δa = 0.5, Δw = −1, so A = −0.5, and Δq puts B near 0.5.
		ai, wi, qi := 0.25, 0.75, -0.125
		for p := 0; p <= n; p++ {
			a, w, q := make([]float64, n), make([]float64, n), make([]float64, n)
			for k := range a {
				a[k], w[k], q[k] = ai, rng.Float64(), rng.Float64()
			}
			if p < n {
				a[p], w[p] = ai+0.5, wi-1
				q[p] = qi + ai - 0.5*wi + 0.5
			}
			check(fmt.Sprintf("n=%d planted=%d", n, p), ai, wi, qi, a, w, q)
			if got := screenEdgesGo(ai, wi, qi, a, w, q); got != p {
				t.Fatalf("n=%d: the planted pair %d screened as %d", n, p, got)
			}
		}
	}
	if passes < 100 {
		t.Fatalf("only %d random tails had a passing pair", passes)
	}
}

// TestMaskRowBodiesMatch holds both bodies of the mask epilogue to the
// formula, entry for entry and bit for bit (NaN payloads aside), and
// both maxima, on non-negative rows with special values, masks of 0, 1
// and between, and special emissions, at every n mod 4, into dirty
// destinations.
func TestMaskRowBodiesMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	bodies := maskBodies(t)
	for n := 1; n <= 41; n++ {
		for rep := 0; rep < 8; rep++ {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = rng.Float64(), rng.Float64()
			}
			if rep >= 2 {
				sprinkle(rng, x)
				sprinkle(rng, y)
			}
			ft := []float64{0, 1, rng.Float64()}[rep%3]
			tt := []float64{1, 0, rng.Float64()}[rep%3]
			e := rng.Float64()
			if rep == 7 {
				e = special[rng.IntN(len(special))]
			}
			wantF, wantT := make([]float64, n), make([]float64, n)
			var wantFMax, wantTMax float64
			for i := range x {
				wantF[i] = (float64(x[i]*(1-ft)) + float64(y[i]*(1-tt))) * e
				wantT[i] = (float64(x[i]*ft) + float64(y[i]*tt)) * e
				if v := math.Abs(wantF[i]); v > wantFMax {
					wantFMax = v
				}
				if v := math.Abs(wantT[i]); v > wantTMax {
					wantTMax = v
				}
			}
			for _, body := range bodies {
				label := fmt.Sprintf("%s n=%d rep=%d", body.name, n, rep)
				f, tr := dirty(n), dirty(n)
				fMax, tMax := body.run(f, tr, x, y, ft, tt, e)
				for i := range wantF {
					if !sameOrNaN(f[i], wantF[i]) || !sameOrNaN(tr[i], wantT[i]) {
						t.Fatalf("%s: [%d] = (%v, %v), want (%v, %v)", label, i, f[i], tr[i], wantF[i], wantT[i])
					}
				}
				if math.Float64bits(fMax) != math.Float64bits(wantFMax) || math.Float64bits(tMax) != math.Float64bits(wantTMax) {
					t.Fatalf("%s: maxima (%v, %v), want (%v, %v)", label, fMax, tMax, wantFMax, wantTMax)
				}
			}
		}
	}
}

// BenchmarkMaskRow times the mask epilogue over an m×m block pair
// through each body, in ns an entry. The edge screen is timed in its
// setting, by internal/qp's BenchmarkCheckRelease.
func BenchmarkMaskRow(b *testing.B) {
	for _, n := range []int{100, 256, 400} {
		rng := rand.New(rand.NewPCG(37, 38))
		x, y := randomNonNeg(rng, n, n, 0), randomNonNeg(rng, n, n, 0)
		f, tr := NewMatrix(n, n), NewMatrix(n, n)
		for _, body := range maskBodies(b) {
			b.Run(fmt.Sprintf("m%d/%s", n, body.name), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					for j := 0; j < n; j++ {
						body.run(f.Row(j), tr.Row(j), x.Row(j), y.Row(j), 0.5, 0.25, 0.75)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/entry")
			})
		}
	}
}
