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
	if !rowMulAsm {
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

// TestRowKernelMatchesCPUInfo checks the init-time CPUID/XGETBV verdict
// against the kernel's own: /proc/cpuinfo lists avx2 only when the CPU
// has it and the OS saves YMM state. Elsewhere the assembly must be off.
func TestRowKernelMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if rowMulAsm {
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
// the package.
func TestRowMulAssemblyHasNoFMA(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found (%v)", err)
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
