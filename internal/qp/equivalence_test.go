package qp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"priste/internal/mat"
)

// bracketSlack is how far outside the reference's certified [Lower, Upper]
// the scan's value may fall: both sides round.
const bracketSlack = 1e-12

// inBracket reports whether got is consistent with the bounds ref
// certified for the same problem: a value the scan attained never exceeds
// ref's upper bound, and a scan that ran to its end found no less than
// ref's best point.
func inBracket(got, ref Result) bool {
	if got.Lower > ref.Upper+bracketSlack {
		return false
	}
	return got.Upper != got.Lower || got.Lower >= ref.Lower-bracketSlack
}

// TestSolveMatchesReferenceProperty: on random problems — condition-shaped
// and unstructured, with tied and zero entries in A — whenever the
// branch-and-bound reaches a verdict it is Solve's, and Solve's maximum
// lies between the bounds the branch-and-bound certified. The problems real
// release loops pose are held to the same standard in harvest_test.go.
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
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSolve(p, refOptions{MaxNodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if got.Upper != got.Lower || p.Eval(got.BestPi()) != got.Lower {
			t.Fatalf("seed %d: Solve ended in [%v, %v] with g(BestPi) = %v", seed, got.Lower, got.Upper, p.Eval(got.BestPi()))
		}
		if !inBracket(got, want.Result) {
			t.Fatalf("seed %d: maximum %v outside the reference's [%v, %v]", seed, got.Lower, want.Lower, want.Upper)
		}
		if want.Verdict != Unknown && got.Verdict != want.Verdict {
			t.Fatalf("seed %d: %v at %v, reference %v in [%v, %v]", seed, got.Verdict, got.Lower, want.Verdict, want.Lower, want.Upper)
		}
		verdicts[want.Verdict]++
	}
	if verdicts[Satisfied] < 20 || verdicts[Violated] < 20 {
		t.Fatalf("the reference reached only %v", verdicts)
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

// sameDecision reports whether two decisions agree in every field but
// Elapsed, the bounds bit for bit.
func sameDecision(a, b ReleaseDecision) bool {
	for _, r := range []*Result{&a.Eq15, &a.Eq16, &b.Eq15, &b.Eq16} {
		r.Elapsed = 0
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a == b && same(a.Eq15.Lower, b.Eq15.Lower) && same(a.Eq15.Upper, b.Eq15.Upper) &&
		same(a.Eq16.Lower, b.Eq16.Lower) && same(a.Eq16.Upper, b.Eq16.Upper)
}

// FuzzCheckRelease: the check and the reference's two full solves never
// disagree on a release, every value the check reports lies between the
// bounds the reference certified, the edge screen changes nothing the
// check reports, and no prior on a grid over the simplex loses more than
// ε on a release the check certified.
func FuzzCheckRelease(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzCheckRelease.
	f.Fuzz(func(t *testing.T, data []byte) {
		chk, ok := fuzzCheck(data)
		if !ok {
			return
		}
		got, err := CheckRelease(chk, ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		screen = false
		scalar, err := CheckRelease(chk, ReleaseOptions{})
		screen = true
		if err != nil {
			t.Fatal(err)
		}
		if !sameDecision(got, scalar) {
			t.Fatalf("screened scan %+v, scalar scan %+v on %+v", got, scalar, chk)
		}
		want, err := refCheckReleaseNodes(chk, ReleaseOptions{}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for k, pair := range [2][2]Result{{got.Eq15, want.Eq15}, {got.Eq16, want.Eq16}} {
			if pair[0].BestPi() != nil && !inBracket(pair[0], pair[1]) { // nil: Skipped, or a zero-scale check
				t.Fatalf("Eq.%d: [%v, %v] outside the reference's [%v, %v] on %+v",
					15+k, pair[0].Lower, pair[0].Upper, pair[1].Lower, pair[1].Upper, chk)
			}
		}
		if got.Conservative {
			t.Fatalf("a check without a deadline was conservative on %+v", chk)
		}
		// The node budget can leave the reference Unknown; it is then no
		// witness either way.
		if !want.Conservative && got.OK != want.OK {
			t.Fatalf("CheckRelease OK = %v, two full solves say %v on %+v", got.OK, want.OK, chk)
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
