// Package qp decides the release conditions of Theorem IV.1. The paper
// delegates this to IBM CPLEX; this package is the from-scratch substitute.
//
// Both conditions (Eqs. 15 and 16) ask whether a quadratic function of the
// unknown initial probability π can be positive anywhere over the set of
// probability distributions. The PriSTE quadratic matrix is the rank-one
// product ã·wᵀ (projected to the first m coordinates), so the objective
// always has the form
//
//	g(π) = (π·a)(π·w) + q·π ,   a ≥ 0,  π ∈ Δ = {π ≥ 0, Σπᵢ = 1}.
//
// The paper's statement of the constraints lists only 0 ≤ πᵢ ≤ 1, but its
// derivation of Eqs. (15)/(16) from Definition II.4 uses π·1 = 1, and its
// claim that a fully-uninformative mechanism (α = 0) always satisfies the
// conditions holds only on the simplex — so Δ is the correct feasible set
// and the one implemented here.
//
// Solve performs branch-and-bound on the scalar s = π·a, which over Δ
// ranges in [min aᵢ, max aᵢ]. For an interval [sl, sh] every feasible π
// satisfies
//
//	g(π) ≤ max( (sl·w + q)·π , (sh·w + q)·π )
//
// and maximising a linear function c·π over {π ∈ Δ, sl ≤ π·a ≤ sh} is an
// exact O(n log n) problem: h(s) = max{c·π : π ∈ Δ, a·π = s} is the upper
// concave envelope of the points (aᵢ, cᵢ), so the node bound is the
// envelope's maximum over [sl, sh]. Upper bounds are therefore certified,
// which is what the paper's conservative release (§IV-C) needs: a location
// is only released when the solver is *sure* both conditions hold. General
// indefinite QP is NP-hard [Pardalos & Vavasis 1991]; the same time-budget/
// "not sure ⇒ don't release" escape hatch the paper uses with CPLEX applies
// here via Options.Deadline.
//
// Lower bounds come from candidate points — the best vertex, the uniform
// distribution, the maximisers of every LP relaxation — each polished by a
// pairwise-exchange ascent. A search therefore has three stages: the best
// vertex (O(n), no sort), the uniform point and the root relaxation, then
// the branching. CheckRelease screens before it certifies: a violation of
// either condition rejects the release, and seven rejected candidates in
// eight are already violated at a seed point, so it runs stage one of both
// conditions, then stage two of both, then branches each, and returns at
// the first lower bound past Tol, leaving the other condition Skipped.
// Only a candidate about to be released pays for two full certifications.
// The stages of one search take nothing from the other's, so OK and
// Conservative are exactly those of two solves run to the end.
//
// The ascent moves mass between pairs of coordinates, and a pair can only
// move if one end holds mass: the feasible transfer from i to j is
// [-πⱼ, πᵢ], which is [-0, 0] otherwise, and the step is then exactly zero.
// LP maximisers have at most two non-zero coordinates, so a sweep keeps
// the sorted support of π, visits only the pairs that touch it — in the
// (i, j) order of the full sweep, following the support as transfers empty
// and seed coordinates — and takes the dot products through it. Skipped
// pairs are no-ops and skipped terms are exact zeros, so every transfer,
// bound and node is the full sweep's, bit for bit; reference_test.go keeps
// the full sweep to hold the solver to that.
package qp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"priste/internal/mat"
)

// Problem is: maximize (π·A)(π·W) + Q·π subject to π in the probability
// simplex. A must be elementwise non-negative.
type Problem struct {
	A, W, Q mat.Vector
}

// Validate checks dimensions and the sign restriction on A.
func (p Problem) Validate() error {
	n := len(p.A)
	if n == 0 {
		return fmt.Errorf("qp: empty problem")
	}
	if len(p.W) != n || len(p.Q) != n {
		return fmt.Errorf("qp: length mismatch A=%d W=%d Q=%d", n, len(p.W), len(p.Q))
	}
	for i, v := range p.A {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qp: A[%d] = %g must be finite and non-negative", i, v)
		}
	}
	for i := range p.W {
		if math.IsNaN(p.W[i]) || math.IsInf(p.W[i], 0) || math.IsNaN(p.Q[i]) || math.IsInf(p.Q[i], 0) {
			return fmt.Errorf("qp: W/Q contain non-finite values at %d", i)
		}
	}
	return nil
}

// Eval returns the objective value at π.
func (p Problem) Eval(pi mat.Vector) float64 {
	return pi.Dot(p.A)*pi.Dot(p.W) + pi.Dot(p.Q)
}

// Verdict classifies the outcome of a bound check.
type Verdict int

const (
	// Satisfied means the solver certified max g(π) ≤ Tol.
	Satisfied Verdict = iota
	// Violated means a π with g(π) > Tol was found.
	Violated
	// Unknown means the budget ran out with Tol between the bounds.
	Unknown
	// Skipped means the search was not run, or not to its end, because
	// the other condition of the same release check was found violated.
	// It certifies nothing about its own condition; the decision that
	// carries it is a certified rejection.
	Skipped
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	case Unknown:
		return "unknown"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options tunes the solver.
type Options struct {
	// Tol is the positivity threshold: values ≤ Tol count as "not a
	// violation". Should be a small positive number scaled to the
	// problem's magnitude. Default 1e-9.
	Tol float64
	// MaxNodes caps branch-and-bound nodes. Default 20000.
	MaxNodes int
	// Deadline, if non-zero, aborts the search when exceeded, returning
	// Unknown (the paper's conservative-release time threshold).
	Deadline time.Duration
	// AscentPasses is the number of pairwise-exchange ascent sweeps used
	// to sharpen lower bounds at each node. Default 2.
	AscentPasses int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.AscentPasses <= 0 {
		o.AscentPasses = 2
	}
	return o
}

// Result reports the solver's conclusion and certificates.
type Result struct {
	Verdict Verdict
	// Lower is the best objective value found (a certified lower bound on
	// the maximum); BestPi attains it.
	Lower  float64
	BestPi mat.Vector
	// Upper is a certified upper bound on the maximum.
	Upper float64
	// Nodes is the number of branch-and-bound nodes processed.
	Nodes int
	// Elapsed is the wall time spent.
	Elapsed time.Duration
}

type node struct {
	sl, sh float64
	ub     float64
}

// nodeHeap is a max-heap on ub. push and pop repeat container/heap's sift
// steps exactly, so nodes with equal bounds leave in the order they always
// did, without boxing a node per operation.
type nodeHeap []node

func (h *nodeHeap) push(nd node) {
	s := append(*h, nd)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].ub > s[i].ub) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nodeHeap) pop() node {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].ub > s[j].ub {
			j = r
		}
		if !(s[j].ub > s[i].ub) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// search is the branch-and-bound state of one condition. Its stages —
// seedVertex, seedRoot, branch — run in that order; what they find does
// not depend on what happens between them, so CheckRelease can interleave
// the stages of its two conditions.
type search struct {
	w, q mat.Vector

	lower  float64    // best objective found, -Inf before the first candidate
	bestPi mat.Vector // attains lower once found
	found  bool

	heap   nodeHeap
	rooted bool    // the root relaxation is in: heap and closed bound the maximum
	closed float64 // max UB among nodes pruned without branching
	nodes  int

	elapsed time.Duration
}

// workspace is the scratch one Solve or CheckRelease call runs in: the
// sort order of A and the hull buffer every LP subproblem reuses, the
// candidate being polished, and the state of up to two searches over the
// same A. Workspaces are pooled, so a call allocates only the BestPi it
// returns.
type workspace struct {
	n    int
	a    mat.Vector
	opts Options

	// order lists the indices by (A[i], then i) ascending, a total order.
	// A pooled workspace keeps it across calls: ã is constant per
	// world.Model, so in the engine the sort finds it sorted already and
	// is one O(n) pass.
	order  []int
	sorted bool

	// hull is the upper concave envelope of {(aᵢ, s·wᵢ+qᵢ)} for the search
	// and the s in hullOf/hullS, peak its highest point. Sibling nodes
	// share an endpoint and therefore a hull.
	hull   []hullPt
	hullOf *search
	hullS  uint64
	peak   int

	// pi is the candidate under consideration and supp the ascending
	// indices of its non-zeros; pi is all zero between candidates.
	pi   mat.Vector
	supp []int

	cond [2]search
	// lin backs the w and q of both conditions of a release check.
	lin mat.Vector
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// acquire returns a pooled workspace laid out for a and opt, both
// searches reset and unbound.
func acquire(a mat.Vector, opt Options) *workspace {
	ws := workspaces.Get().(*workspace)
	if n := len(a); ws.n != n {
		buf := make(mat.Vector, 7*n)
		*ws = workspace{
			n:     n,
			order: make([]int, n),
			supp:  make([]int, 0, n),
			hull:  make([]hullPt, 0, n),
			pi:    buf[:n:n],
			lin:   buf[3*n:],
		}
		for i := range ws.order {
			ws.order[i] = i
		}
		ws.cond[0].bestPi = buf[n : 2*n : 2*n]
		ws.cond[1].bestPi = buf[2*n : 3*n : 3*n]
	}
	ws.a, ws.opts = a, opt
	ws.sorted, ws.hullOf = false, nil
	for k := range ws.cond {
		sr := &ws.cond[k]
		*sr = search{bestPi: sr.bestPi, heap: sr.heap[:0], lower: math.Inf(-1), closed: math.Inf(-1)}
	}
	return ws
}

// release returns ws to the pool without the caller's vectors.
func (ws *workspace) release() {
	ws.a = nil
	for k := range ws.cond {
		ws.cond[k].w, ws.cond[k].q = nil, nil
	}
	workspaces.Put(ws)
}

// Solve maximises the problem over the simplex and classifies the result
// against opt.Tol.
func Solve(p Problem, opt Options) (Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	ws := acquire(p.A, opt)
	sr := &ws.cond[0]
	sr.w, sr.q = p.W, p.Q
	ws.seedVertex(sr)
	ws.seedRoot(sr)
	ws.branch(sr, deadlineAfter(start, opt.Deadline))
	r := ws.result(sr)
	ws.release()
	r.Elapsed = time.Since(start)
	return r, nil
}

// deadlineAfter returns start + budget, or the zero time (no deadline)
// without a budget.
func deadlineAfter(start time.Time, budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return start.Add(budget)
}

// seedVertex considers the best vertex (cheap: g(eᵢ) = aᵢwᵢ + qᵢ). No
// sort, no hull: a condition that is violated there costs O(n).
func (ws *workspace) seedVertex(sr *search) {
	bi, bv := 0, math.Inf(-1)
	for i, ai := range ws.a {
		if v := ai*sr.w[i] + sr.q[i]; v > bv {
			bv, bi = v, i
		}
	}
	ws.setVertex(bi)
	ws.consider(sr)
}

// seedRoot considers the uniform distribution and the optima of the root
// relaxation, and opens the tree with the root's bound.
func (ws *workspace) seedRoot(sr *search) {
	u := 1 / float64(ws.n)
	for i := range ws.pi {
		ws.pi[i] = u
		ws.supp = append(ws.supp, i)
	}
	ws.consider(sr)
	sMin, sMax := ws.a.Min(), ws.a.Max()
	sr.heap.push(node{sl: sMin, sh: sMax, ub: ws.nodeBound(sr, sMin, sMax)})
	sr.rooted = true
}

// branch runs best-first branch-and-bound on s = π·a until the condition
// is decided, the node budget is spent or the deadline (if set) passes.
func (ws *workspace) branch(sr *search, deadline time.Time) {
	tol := ws.opts.Tol
	for len(sr.heap) > 0 {
		if sr.lower > tol {
			break // violation certified
		}
		top := sr.heap[0]
		if top.ub <= tol {
			break // satisfaction certified: no remaining node can exceed Tol
		}
		if top.ub-sr.lower <= tol {
			break // gap closed
		}
		if sr.nodes >= ws.opts.MaxNodes {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		sr.heap.pop()
		sr.nodes++
		mid := 0.5 * (top.sl + top.sh)
		for _, iv := range [2][2]float64{{top.sl, mid}, {mid, top.sh}} {
			ub := ws.nodeBound(sr, iv[0], iv[1])
			if ub > sr.lower || ub > tol {
				sr.heap.push(node{sl: iv[0], sh: iv[1], ub: ub})
			} else if ub > sr.closed {
				// Pruned node: its UB still caps the maximum on its region.
				sr.closed = ub
			}
		}
	}
}

// result reports where the search stands. Before seedRoot nothing bounds
// the maximum from above.
func (ws *workspace) result(sr *search) Result {
	r := Result{Lower: sr.lower, Upper: math.Inf(1), Nodes: sr.nodes, Elapsed: sr.elapsed}
	if sr.found {
		r.BestPi = sr.bestPi.Clone()
	}
	if sr.rooted {
		r.Upper = math.Max(sr.lower, sr.closed)
		if len(sr.heap) > 0 {
			r.Upper = math.Max(r.Upper, sr.heap[0].ub)
		}
	}
	switch {
	case r.Lower > ws.opts.Tol:
		r.Verdict = Violated
	case r.Upper <= ws.opts.Tol:
		r.Verdict = Satisfied
	default:
		r.Verdict = Unknown
	}
	return r
}

// nodeBound returns a certified upper bound for the node [sl,sh] — the
// larger optimum of the two LP relaxations — after considering both
// maximisers as lower-bound candidates. An interval disjoint from
// [min a, max a] returns -Inf and considers nothing.
func (ws *workspace) nodeBound(sr *search, sl, sh float64) float64 {
	ub := math.Inf(-1)
	for _, s := range [2]float64{sl, sh} {
		val, feasible := ws.simplexLP(sr, s, sl, sh)
		if !feasible {
			return math.Inf(-1)
		}
		if val > ub {
			ub = val
		}
		ws.consider(sr)
	}
	return ub
}

// consider polishes the candidate in ws.pi and keeps it if it beats the
// search's best, then zeroes ws.pi for the next one.
func (ws *workspace) consider(sr *search) {
	// The ascent only pays off on candidates that are already
	// competitive; evaluate first and polish only those.
	s, t := ws.dot(ws.a), ws.dot(sr.w)
	if v := s*t + ws.dot(sr.q); v < sr.lower-0.1*math.Abs(sr.lower) {
		ws.clearCandidate()
		return
	}
	ws.ascent(sr, s, t)
	if v := ws.dot(ws.a)*ws.dot(sr.w) + ws.dot(sr.q); v > sr.lower {
		sr.lower, sr.found = v, true
		copy(sr.bestPi, ws.pi)
	}
	ws.clearCandidate()
}

func (ws *workspace) clearCandidate() {
	for _, i := range ws.supp {
		ws.pi[i] = 0
	}
	ws.supp = ws.supp[:0]
}

// dot returns ws.pi·v through the support. The terms it leaves out are
// exact zeros and a sum never leaves a non-zero value or turns +0 into
// -0 by adding one, so this is mat.Vector.Dot to the last bit.
func (ws *workspace) dot(v mat.Vector) float64 {
	var s float64
	for _, i := range ws.supp {
		s += ws.pi[i] * v[i]
	}
	return s
}

// ascent performs pairwise-exchange sweeps on g over the simplex, improving
// ws.pi in place; s and t are π·a and π·w on entry. Transferring mass δ
// from coordinate i to j keeps π on the simplex, and g as a function of δ
// is an explicit quadratic maximised in closed form over the feasible
// transfer interval [-πⱼ, πᵢ]. A pair with no mass at either end has the
// interval [-0, 0] and cannot move, so a sweep visits, in (i, j) order,
// only the pairs with mass on one side: every j while πᵢ ≠ 0, the support
// otherwise. LP candidates have at most two non-zeros, which makes a
// sweep O(n) where the full one is O(n²), with the same transfers in the
// same order.
func (ws *workspace) ascent(sr *search, s, t float64) {
	a, wv, q, pi := ws.a, sr.w, sr.q, ws.pi
	n := ws.n
	for pass := 0; pass < ws.opts.AscentPasses; pass++ {
		improved := false
		past := 0 // supp[past:] are the support indices beyond row i
		for i := 0; i < n; i++ {
			for past < len(ws.supp) && ws.supp[past] <= i {
				past++
			}
			k := past // supp[:k] lie before column j
			for j := i + 1; j < n; j++ {
				if pi[i] == 0 {
					for k < len(ws.supp) && ws.supp[k] < j {
						k++
					}
					if k == len(ws.supp) {
						break
					}
					j = ws.supp[k]
				}
				da := a[j] - a[i]
				dw := wv[j] - wv[i]
				dq := q[j] - q[i]
				// δ > 0 moves mass from i to j: δ ∈ [-π_j, π_i].
				qa := da * dw
				qb := s*dw + t*da + dq
				lo, hi := -pi[j], pi[i]
				d := bestQuadOnInterval(qa, qb, lo, hi)
				if d == 0 {
					continue
				}
				gain := qa*d*d + qb*d
				if gain <= 1e-15*(1+math.Abs(t)*math.Abs(s)) {
					continue
				}
				pi[i] -= d
				pi[j] += d
				s += d * da
				t += d * dw
				improved = true
				if (pi[i] == 0) != (hi == 0) || (pi[j] == 0) != (lo == 0) {
					ws.resupport(i, j)
					past, _ = slices.BinarySearch(ws.supp, i+1)
					k = past
				}
			}
		}
		if !improved {
			break
		}
	}
}

// resupport brings supp back in step with pi after a transfer between
// coordinates i and j emptied or seeded one of them.
func (ws *workspace) resupport(i, j int) {
	for _, c := range [2]int{i, j} {
		switch k, listed := slices.BinarySearch(ws.supp, c); {
		case listed && ws.pi[c] == 0:
			ws.supp = slices.Delete(ws.supp, k, k+1)
		case !listed && ws.pi[c] != 0:
			ws.supp = slices.Insert(ws.supp, k, c)
		}
	}
}

// bestQuadOnInterval maximises qa·x² + qb·x over [lo, hi] (lo ≤ 0 ≤ hi).
func bestQuadOnInterval(qa, qb, lo, hi float64) float64 {
	bx, bv := 0.0, 0.0
	if v := qa*lo*lo + qb*lo; v > bv {
		bx, bv = lo, v
	}
	if v := qa*hi*hi + qb*hi; v > bv {
		bx, bv = hi, v
	}
	if qa < 0 {
		if x := -qb / (2 * qa); x > lo && x < hi && qa*x*x+qb*x > bv {
			bx = x
		}
	}
	return bx
}

// sortA brings order up to date with ws.a.
func (ws *workspace) sortA() {
	a := ws.a
	slices.SortFunc(ws.order, func(x, y int) int {
		if c := cmp.Compare(a[x], a[y]); c != 0 {
			return c
		}
		return x - y
	})
	ws.sorted = true
}

// simplexLP maximises c·π, c = s·w + q, subject to π ∈ Δ and
// sl ≤ a·π ≤ sh, with a ≥ 0. h(x) = max{c·π : π ∈ Δ, a·π = x} is the upper
// concave envelope of the point set {(aᵢ, cᵢ)}; the optimum over the
// interval is the envelope's peak clamped into [sl, sh]. It returns the
// optimal value and feasibility, and leaves an optimal point (a vertex or
// a two-vertex mixture) in ws.pi.
func (ws *workspace) simplexLP(sr *search, s, sl, sh float64) (float64, bool) {
	if !ws.sorted {
		ws.sortA()
	}
	if bits := math.Float64bits(s); ws.hullOf != sr || ws.hullS != bits {
		ws.buildHull(sr, s)
		ws.hullOf, ws.hullS = sr, bits
	}
	hull := ws.hull
	aMin, aMax := hull[0].x, hull[len(hull)-1].x
	if sh < aMin-1e-15 || sl > aMax+1e-15 {
		return 0, false
	}
	lo := math.Max(sl, aMin)
	hi := math.Min(sh, aMax)

	// The envelope is concave: its peak vertex is the global max; if the
	// peak lies outside [lo,hi], the max over the interval is at the
	// nearer endpoint.
	switch peak := hull[ws.peak]; {
	case peak.x >= lo && peak.x <= hi:
		ws.setVertex(peak.i)
		return peak.y, true
	case peak.x < lo:
		return ws.hullInterp(lo), true
	default:
		return ws.hullInterp(hi), true
	}
}

type hullPt struct {
	x, y float64
	i    int // original index
}

// buildHull rebuilds ws.hull, the upper concave hull of {(aᵢ, s·wᵢ+qᵢ)},
// in one scan over the x-ascending order, and finds its peak.
func (ws *workspace) buildHull(sr *search, s float64) {
	a, w, q, order := ws.a, sr.w, sr.q, ws.order
	hull := ws.hull[:0]
	for k := 0; k < len(order); k++ {
		idx := order[k]
		// Collapse runs of equal x to their max y (the order is stable on
		// x, so a run is contiguous).
		x, y := a[idx], s*w[idx]+q[idx]
		for k+1 < len(order) && a[order[k+1]] == x {
			k++
			if c := s*w[order[k]] + q[order[k]]; c > y {
				y, idx = c, order[k]
			}
		}
		p := hullPt{x: x, y: y, i: idx}
		// Remove the last point while it is not above the segment from
		// its predecessor to p.
		for h := len(hull); h >= 2 && cross(&hull[h-2], &hull[h-1], &p) >= 0; h-- {
			hull = hull[:h-1]
		}
		hull = append(hull, p)
	}
	ws.hull, ws.peak = hull, 0
	for k := 1; k < len(hull); k++ {
		if hull[k].y > hull[ws.peak].y {
			ws.peak = k
		}
	}
}

// cross is the z-component of (b-a)×(c-a); ≥ 0 means b is not strictly
// above the a-c line (so b is redundant for the upper hull).
func cross(a, b, c *hullPt) float64 {
	return (b.x-a.x)*(c.y-a.y) - (c.x-a.x)*(b.y-a.y)
}

// hullInterp evaluates the envelope at x and leaves the attaining mixture
// in ws.pi. Returns the value.
func (ws *workspace) hullInterp(x float64) float64 {
	hull := ws.hull
	if first := hull[0]; x <= first.x {
		ws.setVertex(first.i)
		return first.y
	}
	if last := hull[len(hull)-1]; x >= last.x {
		ws.setVertex(last.i)
		return last.y
	}
	k, _ := slices.BinarySearchFunc(hull, x, func(p hullPt, x float64) int {
		if p.x < x {
			return -1
		}
		return 1 // the first point with p.x ≥ x
	})
	p1, p2 := hull[k-1], hull[k]
	lam := (p2.x - x) / (p2.x - p1.x)
	if p1.i < p2.i {
		ws.setWeight(p1.i, lam)
		ws.setWeight(p2.i, 1-lam)
	} else {
		ws.setWeight(p2.i, 1-lam)
		ws.setWeight(p1.i, lam)
	}
	return lam*p1.y + (1-lam)*p2.y
}

// setVertex makes eᵢ the candidate.
func (ws *workspace) setVertex(i int) { ws.setWeight(i, 1) }

// setWeight appends coordinate i to the candidate; callers add
// coordinates in ascending order.
func (ws *workspace) setWeight(i int, w float64) {
	if w != 0 {
		ws.pi[i] = w
		ws.supp = append(ws.supp, i)
	}
}
