package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"priste/internal/par"
)

// randomBanded returns an m×m non-negative matrix with all nonzeros in
// |i−j| ≤ band and the given interior zero fraction.
func randomBanded(rng *rand.Rand, m, band int, zeroFrac float64) *Matrix {
	a := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := max(0, i-band); j <= min(m-1, i+band); j++ {
			if rng.Float64() < zeroFrac {
				continue
			}
			a.Set(i, j, rng.Float64())
		}
	}
	return a
}

func TestBandwidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, tc := range []struct{ m, band int }{
		{1, 0}, {5, 0}, {8, 1}, {20, 3}, {30, 29}, {17, 16},
	} {
		a := randomBanded(rng, tc.m, tc.band, 0)
		if got := Bandwidth(a); got != tc.band {
			t.Fatalf("m=%d band=%d: Bandwidth = %d", tc.m, tc.band, got)
		}
	}
	if got := Bandwidth(NewMatrix(7, 7)); got != 0 {
		t.Fatalf("zero matrix bandwidth = %d", got)
	}
}

// TestRowMulIntoBandedMatchesDot: the band-limited row product on the
// transposed operator is the matvec a·x the quantifier's checks need
// (the band of aᵀ is the band of a), bit for bit against the row dots.
func TestRowMulIntoBandedMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, tc := range []struct{ m, band int }{
		{1, 0}, {7, 0}, {12, 3}, {40, 39}, {55, 9},
	} {
		a := randomBanded(rng, tc.m, tc.band, 0.2)
		x := make(Vector, tc.m)
		for i := range x {
			x[i] = rng.Float64()
		}
		want := make(Vector, tc.m)
		a.MulVecInto(want, x)
		got := make(Vector, tc.m)
		got[0] = math.NaN() // must be fully overwritten
		RowMulInto(got, x, a.Transpose(), tc.band)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("m=%d band=%d: element %d differs", tc.m, tc.band, i)
			}
		}
	}
}

type rowMulBody struct {
	name string
	run  func(dst, a, b *Matrix) // dst = a·b, every row through the body
}

// rowMulBodies returns the bodies of the row primitive this machine can
// run, each as a whole product: always the Go body, plus — when init
// turned the assembly on — its 1-row form on every row and the 2-row
// register tile the way MulRowsInto pairs rows (an odd last row takes
// the 1-row form).
func rowMulBodies(t testing.TB) []rowMulBody {
	perRow := func(row func(dst, a, b []float64, stride int)) func(dst, a, b *Matrix) {
		return func(dst, a, b *Matrix) {
			for i := 0; i < a.Rows; i++ {
				row(dst.Row(i), a.Row(i), b.Data, b.Cols)
			}
		}
	}
	bodies := []rowMulBody{{"go", perRow(rowMulGo)}}
	if !useAVX2 {
		t.Log("no AVX2 on this machine: assembly body not exercised")
		return bodies
	}
	return append(bodies,
		rowMulBody{"avx2x1", perRow(rowMul)},
		rowMulBody{"avx2x2", func(dst, a, b *Matrix) { mulRowsRange(dst, a, b, 0, a.Rows) }})
}

// dirty returns n NaNs: a destination every kernel must fully overwrite.
func dirty(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

func sameBitsRow(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, j, got[j], want[j])
		}
	}
}

// TestRowMulBodiesMatchNaive holds every body of the primitive to
// MulInto, bit for bit: every n mod 16 and n mod 4 (n < 4 included),
// short and empty k, zero-heavy operands, a dirty dst, and row counts
// that leave the 2-row tile an odd row or none.
func TestRowMulBodiesMatchNaive(t *testing.T) {
	var sizes []int
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 63, 64, 65, 66, 67, 100, 256)
	rng := rand.New(rand.NewPCG(21, 22))
	bodies := rowMulBodies(t)
	for _, rows := range []int{1, 2, 3, 5, 100, 101} {
		for _, n := range sizes {
			for _, kk := range []int{0, 1, 3, 4, 5, n} {
				for _, zeroFrac := range []float64{0, 0.5, 0.95, 1} {
					if rows >= 100 && (n > 100 || zeroFrac != 0.5) {
						continue // tall products at one zero fraction
					}
					a := randomNonNeg(rng, rows, kk, zeroFrac)
					b := randomNonNeg(rng, kk, n, zeroFrac)
					want := NewMatrix(rows, n)
					MulInto(want, a, b)
					for _, body := range bodies {
						got := &Matrix{Rows: rows, Cols: n, Data: dirty(rows * n)}
						body.run(got, a, b)
						sameBitsRow(t, fmt.Sprintf("%s rows=%d n=%d k=%d zeros=%g", body.name, rows, n, kk, zeroFrac), got.Data, want.Data)
					}
				}
			}
		}
	}
}

// TestRowEntryPointsMatchNaive: the public forms over the primitive
// agree bit for bit with the plain loops the oracle keeps, into dirty
// dsts — MulRowsInto serial and row-split, RowMulInto and RowMul2Into
// full-band and band-limited — and both assembly forms read a column
// window of a wider matrix (stride > n).
func TestRowEntryPointsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 36, 100, 101, 131} {
		a := randomNonNeg(rng, n, n, 0.2)
		b := randomNonNeg(rng, n, n, 0.2)
		want := NewMatrix(n, n)
		MulInto(want, a, b)
		// Serial, then with the pool's cutoff forced down so the rows
		// split across workers (at -cpu > 1).
		for _, cutoff := range []int64{0, 1} {
			par.Default().SetCutoffOverride(cutoff)
			got := &Matrix{Rows: n, Cols: n, Data: dirty(n * n)}
			MulRowsInto(got, a, b)
			par.Default().SetCutoffOverride(0)
			sameBitsRow(t, fmt.Sprintf("n=%d cutoff=%d: MulRowsInto", n, cutoff), got.Data, want.Data)
		}
		x0, x1 := a.Row(0), a.Row(n-1)
		banded := randomBanded(rng, n, 2, 0.2)
		for _, op := range []struct {
			b    *Matrix
			band int
		}{{b, n - 1}, {banded, 2}} {
			want0 := op.b.VecMulInto(NewVector(n), x0)
			want1 := op.b.VecMulInto(NewVector(n), x1)
			label := fmt.Sprintf("n=%d band=%d: ", n, op.band)
			got0, got1 := dirty(n), dirty(n)
			RowMulInto(got0, x0, op.b, op.band)
			sameBitsRow(t, label+"RowMulInto", got0, want0)
			got0 = dirty(n)
			RowMul2Into(got0, got1, x0, x1, op.b, op.band)
			sameBitsRow(t, label+"RowMul2Into row 0", got0, want0)
			sameBitsRow(t, label+"RowMul2Into row 1", got1, want1)
		}
		if n > 4 {
			w := n - 3
			want0 := b.VecMulInto(NewVector(n), x0)[2:][:w]
			want1 := b.VecMulInto(NewVector(n), x1)[2:][:w]
			win0, win1 := dirty(w), dirty(w)
			rowMul(win0, x0, b.Data[2:], n)
			sameBitsRow(t, fmt.Sprintf("n=%d: windowed rowMul", n), win0, want0)
			win0 = dirty(w)
			rowMul2(win0, win1, x0, x1, b.Data[2:], n)
			sameBitsRow(t, fmt.Sprintf("n=%d: windowed rowMul2 row 0", n), win0, want0)
			sameBitsRow(t, fmt.Sprintf("n=%d: windowed rowMul2 row 1", n), win1, want1)
		}
	}
}

// kronRef is KronMulInto's result from plain loops: MulInto over the
// same blocks — each w-row block of op times b, then a times the
// intermediate read as h rows of w·n — which takes every chain in the
// same order.
func kronRef(a, b, op *Matrix) *Matrix {
	h, w, n := a.Rows, b.Rows, op.Cols
	tmp := NewMatrix(h*w, n)
	for y := 0; y < h; y++ {
		blk := w * n
		MulInto(&Matrix{Rows: w, Cols: n, Data: tmp.Data[y*blk:][:blk]}, b, &Matrix{Rows: w, Cols: n, Data: op.Data[y*blk:][:blk]})
	}
	dst := NewMatrix(h*w, n)
	MulInto(&Matrix{Rows: h, Cols: w * n, Data: dst.Data}, a, &Matrix{Rows: h, Cols: w * n, Data: tmp.Data})
	return dst
}

// kronAssembled returns a ⊗ b.
func kronAssembled(a, b *Matrix) *Matrix {
	h, w := a.Rows, b.Rows
	k := NewMatrix(h*w, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for y2 := 0; y2 < h; y2++ {
				for x2 := 0; x2 < w; x2++ {
					k.Set(y*w+x, y2*w+x2, a.At(y, y2)*b.At(x, x2))
				}
			}
		}
	}
	return k
}

// TestKronMulIntoMatchesNaive: the two passes agree bit for bit with
// MulInto over the same blocks, into a dirty dst and tmp, on square and
// non-square factors — odd and even h and w, so each pass ends on a
// register-tile pair or a single row — and a column count n that is or
// is not h·w; and to rounding with the assembled product (a⊗b)·op, which
// catches a swapped or misread factor.
func TestKronMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for _, hw := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 3}, {3, 2}, {5, 5}, {7, 4}, {4, 7}, {10, 10}} {
		h, w := hw[0], hw[1]
		for _, n := range []int{h * w, 3} {
			a := randomNonNeg(rng, h, h, 0.2)
			b := randomNonNeg(rng, w, w, 0.2)
			op := randomNonNeg(rng, h*w, n, 0.2)
			label := fmt.Sprintf("h=%d w=%d n=%d", h, w, n)
			got := &Matrix{Rows: h * w, Cols: n, Data: dirty(h * w * n)}
			tmp := &Matrix{Rows: h * w, Cols: n, Data: dirty(h * w * n)}
			KronMulInto(got, tmp, a, b, op)
			sameBitsRow(t, label, got.Data, kronRef(a, b, op).Data)

			want := NewMatrix(h*w, n)
			MulInto(want, kronAssembled(a, b), op)
			for i, v := range want.Data {
				if d := math.Abs(got.Data[i] - v); d > 1e-13*math.Max(v, 1e-300) {
					t.Fatalf("%s: [%d] = %v, assembled product %v", label, i, got.Data[i], v)
				}
			}
		}
	}
}

// TestRowKernelMatchesCPUInfo checks the init-time CPUID/XGETBV verdict
// against the kernel's own: /proc/cpuinfo lists avx2 only when the CPU
// has it and the OS saves YMM state. Elsewhere the assembly must be off.
func TestRowKernelMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if useAVX2 {
			t.Fatal("assembly body selected off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare with")
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	want := "portable"
	if slices.Contains(strings.Fields(flags), "avx2") {
		want = "avx2"
	}
	if got := RowKernel(); got != want {
		t.Fatalf("RowKernel() = %q, /proc/cpuinfo says %q", got, want)
	}
}

// TestRowMulAssemblyHasNoFMA: a fused multiply-add rounds a term once
// where the Go body rounds twice, and would move releases between
// machines; AVX-512 would split the fleet a third way. Neither mnemonic
// family nor a ZMM or mask register may appear in any assembly file of
// the module — the row primitive's, the edge screen's and the mask
// epilogue's, and any added later.
func TestRowMulAssemblyHasNoFMA(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the package")
		}
		root = parent
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, and the benchmark's build caches
		case !d.IsDir() && filepath.Ext(path) == ".s":
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) < 3 {
		t.Fatalf("found %d assembly files under %s, want the three of internal/mat at least (%v)", len(files), root, err)
	}
	banned := regexp.MustCompile(`VFN?M|\bZ[0-9]|\bK[1-7]\b`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if hit := banned.FindString(code); hit != "" {
				t.Errorf("%s:%d: %q in %q", name, i+1, hit, strings.TrimSpace(code))
			}
		}
	}
}

// BenchmarkRowMul times the full product Mᵀ·Op through every body of
// the primitive beside the blocked kernel it replaced under the
// quantifier, in ps per multiply-add so sizes compare: a gap between
// m = 96 (whole 16-column blocks) and m = 100 is the remainder columns'
// cost.
func BenchmarkRowMul(b *testing.B) {
	for _, n := range []int{36, 96, 100, 256, 400} {
		rng := rand.New(rand.NewPCG(9, 9))
		a := randomNonNeg(rng, n, n, 0)
		m := randomNonNeg(rng, n, n, 0)
		dst := NewMatrix(n, n)
		madds := float64(n) * float64(n) * float64(n)
		for _, body := range rowMulBodies(b) {
			b.Run(fmt.Sprintf("m%d/%s", n, body.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body.run(dst, a, m)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/float64(b.N)/madds, "ps/madd")
			})
		}
		b.Run(fmt.Sprintf("m%d/blocked", n), func(b *testing.B) {
			mt := m.Transpose()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulABtInto(dst, a, mt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/float64(b.N)/madds, "ps/madd")
		})
	}
}
