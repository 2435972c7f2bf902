package qp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"priste/internal/mat"
)

// TestSolveMatchesReferenceProperty: on random problems — condition-shaped
// and unstructured, with tied and zero entries in A, trees cut short by a
// small node budget — Solve reproduces the reference's verdict, node count,
// bounds and maximiser to the last bit. The problems real release loops
// pose are held to the same standard in harvest_test.go.
func TestSolveMatchesReferenceProperty(t *testing.T) {
	verdicts := map[Verdict]int{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := benchProblem(1+rng.Intn(60), seed)
		switch seed % 3 {
		case 0:
			for i := range p.A {
				p.W[i] = rng.NormFloat64()
				p.Q[i] = rng.NormFloat64() * 0.3
				if rng.Intn(4) == 0 {
					p.A[i] = float64(rng.Intn(3)) / 2
				}
			}
		case 1:
			for i := range p.Q {
				p.Q[i] -= 0.05
			}
		}
		opt := Options{MaxNodes: 1 + rng.Intn(400)}
		got, err := Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSolve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Verdict != want.Verdict || got.Nodes != want.Nodes ||
			math.Float64bits(got.Lower) != math.Float64bits(want.Lower) ||
			math.Float64bits(got.Upper) != math.Float64bits(want.Upper) {
			t.Fatalf("seed %d: %v after %d nodes in [%v, %v], reference %v after %d in [%v, %v]", seed,
				got.Verdict, got.Nodes, got.Lower, got.Upper, want.Verdict, want.Nodes, want.Lower, want.Upper)
		}
		for i := range want.BestPi {
			if math.Float64bits(got.BestPi[i]) != math.Float64bits(want.BestPi[i]) {
				t.Fatalf("seed %d: BestPi[%d] = %v, reference %v", seed, i, got.BestPi[i], want.BestPi[i])
			}
		}
		verdicts[got.Verdict]++
	}
	if len(verdicts) < 3 {
		t.Fatalf("the problems reached only %v", verdicts)
	}
}

// fuzzCheck decodes a release check from fuzz bytes: n ≤ 8 from the first
// byte, ε ∈ (0, 2] from the second, then (ã, c̃, b̃/c̃) triples of 16-bit
// fractions, so that b̃ ≤ c̃ like the joint and marginal they stand for. A
// low bit of the first byte ties ã to a 3-level grid, which makes runs of
// equal x on the hull.
func fuzzCheck(data []byte) (ReleaseCheck, bool) {
	if len(data) < 2 {
		return ReleaseCheck{}, false
	}
	n := 1 + int(data[0]>>1)%8
	tied := data[0]&1 != 0
	chk := ReleaseCheck{
		ATilde:  make(mat.Vector, n),
		BTilde:  make(mat.Vector, n),
		CTilde:  make(mat.Vector, n),
		Epsilon: (1 + float64(data[1])) / 128,
	}
	data = data[2:]
	frac := func() float64 {
		if len(data) < 2 {
			return 0.5
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return float64(v) / math.MaxUint16
	}
	for i := 0; i < n; i++ {
		chk.ATilde[i] = frac()
		if tied {
			chk.ATilde[i] = math.Round(2*chk.ATilde[i]) / 2
		}
		chk.CTilde[i] = frac()
		chk.BTilde[i] = chk.CTilde[i] * frac()
	}
	return chk, true
}

// FuzzCheckRelease: the check and the reference's two full solves never
// disagree on a release, and no prior on a grid over the simplex loses more
// than ε on a release the check certified.
func FuzzCheckRelease(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzCheckRelease.
	f.Fuzz(func(t *testing.T, data []byte) {
		chk, ok := fuzzCheck(data)
		if !ok {
			return
		}
		opt := ReleaseOptions{Solver: Options{MaxNodes: 2000}}
		got, err := CheckRelease(chk, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCheckRelease(chk, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK || got.Conservative != want.Conservative {
			t.Fatalf("CheckRelease = (OK %v, conservative %v), two full solves say (%v, %v) on %+v",
				got.OK, got.Conservative, want.OK, want.Conservative, chk)
		}
		if !got.OK {
			return
		}
		n := len(chk.ATilde)
		scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
		pi := make(mat.Vector, n)
		probe := func() {
			loss, err := FixedPiLoss(chk, pi)
			if err != nil {
				return // the event is certain or impossible under this prior
			}
			// The conditions are certified to Tol = 1e-9 on the normalised
			// problem; that bounds the loss only where the products the
			// ratio divides by are not themselves that small.
			pe, pj, po := pi.Dot(chk.ATilde), pi.Dot(chk.BTilde), pi.Dot(chk.CTilde)
			if math.Min(pe*(po-pj), pj*(1-pe)) < 1e-3*scale {
				return
			}
			if loss > chk.Epsilon+1e-5 {
				t.Fatalf("certified at ε = %v, but the prior %v loses %v on %+v", chk.Epsilon, pi, loss, chk)
			}
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				for _, lam := range []float64{1, 0.9, 0.5, 0.1} {
					if i == j && lam != 1 {
						continue
					}
					pi[i], pi[j] = lam, 1-lam
					if i == j {
						pi[i] = 1
					}
					probe()
					pi[i], pi[j] = 0, 0
				}
			}
		}
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		probe()
	})
}
