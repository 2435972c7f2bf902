package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"priste/internal/par"
)

type rowMulBody struct {
	name string
	run  func(dst, a, b []float64, stride int)
}

// rowMulBodies returns the bodies of the row primitive this machine can
// run: always the Go body, plus the dispatching rowMul when init turned
// the assembly on.
func rowMulBodies(t testing.TB) []rowMulBody {
	bodies := []rowMulBody{{"go", rowMulGo}}
	if rowMulAsm {
		bodies = append(bodies, rowMulBody{"avx2", rowMul})
	} else {
		t.Log("no AVX2 on this machine: assembly body not exercised")
	}
	return bodies
}

// TestRowMulBodiesMatchNaive holds both bodies of the primitive to
// MulInto's row, bit for bit, across the column remainders (n < 4,
// n % 4, n % 32), short and empty k, zero-heavy operands and a dirty
// dst.
func TestRowMulBodiesMatchNaive(t *testing.T) {
	var sizes []int
	for _, r := range [][2]int{{1, 9}, {31, 37}, {63, 67}, {100, 100}, {256, 256}} {
		for n := r[0]; n <= r[1]; n++ {
			sizes = append(sizes, n)
		}
	}
	rng := rand.New(rand.NewPCG(21, 22))
	bodies := rowMulBodies(t)
	for _, n := range sizes {
		for _, kk := range []int{0, 1, 3, 4, 5, n} {
			for _, zeroFrac := range []float64{0, 0.5, 0.95, 1} {
				a := randomNonNeg(rng, 1, kk, zeroFrac)
				b := randomNonNeg(rng, kk, n, zeroFrac)
				want := NewMatrix(1, n)
				MulInto(want, a, b)
				for _, body := range bodies {
					got := make([]float64, n)
					for j := range got {
						got[j] = math.NaN()
					}
					body.run(got, a.Data, b.Data, n)
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want.Data[j]) {
							t.Fatalf("%s n=%d k=%d zeros=%g: dst[%d] = %v, naive %v",
								body.name, n, kk, zeroFrac, j, got[j], want.Data[j])
						}
					}
				}
			}
		}
	}
}

// TestRowEntryPointsMatchNaive: the two public forms over the
// primitive agree bit for bit with the plain loops the oracle keeps, on
// a column window of a wider matrix too (stride > n).
func TestRowEntryPointsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, n := range []int{1, 7, 36, 100, 131} {
		a := randomNonNeg(rng, n, n, 0.2)
		b := randomNonNeg(rng, n, n, 0.2)
		want := NewMatrix(n, n)
		MulInto(want, a, b)
		// Serial, then with the pool's cutoff forced down so the rows
		// split across workers (at -cpu > 1).
		for _, cutoff := range []int64{0, 1} {
			par.Default().SetCutoffOverride(cutoff)
			got := NewMatrix(n, n)
			MulRowsInto(got, a, b)
			par.Default().SetCutoffOverride(0)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d cutoff=%d: MulRowsInto element %d differs", n, cutoff, i)
				}
			}
		}
		x := a.Row(0)
		wantRow := b.VecMulInto(NewVector(n), x)
		gotRow := RowMulInto(NewVector(n), x, b, n-1)
		for j := range wantRow {
			if gotRow[j] != wantRow[j] {
				t.Fatalf("n=%d: RowMulInto element %d differs", n, j)
			}
		}
		if n > 4 {
			w := n - 3
			win := make([]float64, w)
			rowMul(win, x, b.Data[2:], n)
			for j := range win {
				if win[j] != wantRow[j+2] {
					t.Fatalf("n=%d: windowed rowMul element %d differs", n, j)
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
// family nor a ZMM register may appear in the assembly.
func TestRowMulAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("rowmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`VFN?M|\bZ[0-9]|\bK[1-7]\b`)
	for i, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		if hit := banned.FindString(code); hit != "" {
			t.Errorf("rowmul_amd64.s:%d: %q in %q", i+1, hit, strings.TrimSpace(code))
		}
	}
}

// BenchmarkRowMul times the full product Mᵀ·Op through the primitive —
// both bodies — beside BenchmarkMulBlocked400, the kernel it replaced
// under the quantifier.
func BenchmarkRowMul(b *testing.B) {
	for _, n := range []int{36, 100, 256, 400} {
		rng := rand.New(rand.NewPCG(9, 9))
		a := randomNonNeg(rng, n, n, 0)
		m := randomNonNeg(rng, n, n, 0)
		dst := NewMatrix(n, n)
		for _, body := range rowMulBodies(b) {
			b.Run(fmt.Sprintf("m%d/%s", n, body.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for r := 0; r < n; r++ {
						body.run(dst.Data[r*n:(r+1)*n], a.Data[r*n:(r+1)*n], m.Data, n)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("m%d/blocked", n), func(b *testing.B) {
			mt := m.Transpose()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulABtInto(dst, a, mt)
			}
		})
	}
}
