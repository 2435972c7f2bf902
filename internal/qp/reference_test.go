package qp

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"priste/internal/mat"
)

// This file is the reference the solver is tested against: the
// branch-and-bound on s = π·a that decided the conditions before the edge
// scan, as it stood before its own support-list rewrite. Nothing outside
// _test.go files may call it.

// refOptions are Options with the two knobs only the branch-and-bound has.
type refOptions struct {
	Options
	// MaxNodes caps branch-and-bound nodes. Default 20000.
	MaxNodes int
	// AscentPasses is the number of pairwise-exchange ascent sweeps used
	// to sharpen lower bounds at each node. Default 2.
	AscentPasses int
}

func (o refOptions) withDefaults() refOptions {
	o.Options = o.Options.withDefaults()
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.AscentPasses <= 0 {
		o.AscentPasses = 2
	}
	return o
}

// refResult is a Result with the number of branch-and-bound nodes
// processed.
type refResult struct {
	Result
	Nodes int
}

type refNode struct {
	sl, sh float64
	ub     float64
}

type refNodeHeap []refNode

func (h refNodeHeap) Len() int            { return len(h) }
func (h refNodeHeap) Less(i, j int) bool  { return h[i].ub > h[j].ub } // max-heap on UB
func (h refNodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refNodeHeap) Push(x interface{}) { *h = append(*h, x.(refNode)) }
func (h *refNodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSolve is the branch-and-bound: one fresh workspace per call, the full
// n(n−1)/2 pair sweep in every ascent, container/heap. It is kept verbatim
// as the oracle the equivalence tests, the fuzz target and the engine-level
// comparison hold Solve and CheckRelease to.
func refSolve(p Problem, opt refOptions) (refResult, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return refResult{}, err
	}
	n := len(p.A)
	sMin, sMax := p.A.Min(), p.A.Max()

	ws := newRefWorkspace(p)

	best := refResult{Result: Result{Lower: math.Inf(-1), Upper: math.Inf(1)}}
	consider := func(pi mat.Vector) {
		if pi == nil {
			return
		}
		// The O(n²) pairwise ascent only pays off on candidates that are
		// already competitive; evaluate first and polish only those.
		v := p.Eval(pi)
		if v < best.Lower-0.1*math.Abs(best.Lower) {
			return
		}
		ws.ascent(pi, opt.AscentPasses)
		if v = p.Eval(pi); v > best.Lower {
			best.Lower = v
			best.BestPi = pi.Clone()
		}
	}

	// Seed with the best vertex (cheap: g(eᵢ) = aᵢwᵢ + qᵢ) and uniform.
	bi := 0
	bv := math.Inf(-1)
	for i := 0; i < n; i++ {
		if v := p.A[i]*p.W[i] + p.Q[i]; v > bv {
			bv, bi = v, i
		}
	}
	vert := mat.NewVector(n)
	vert[bi] = 1
	consider(vert)
	uni := mat.NewVector(n)
	for i := range uni {
		uni[i] = 1 / float64(n)
	}
	consider(uni)

	rootUB, rootPis := ws.nodeBound(sMin, sMax)
	for _, pi := range rootPis {
		consider(pi)
	}
	h := &refNodeHeap{{sl: sMin, sh: sMax, ub: rootUB}}
	heap.Init(h)

	nodes := 0
	closedUB := math.Inf(-1) // max UB among nodes pruned without branching
	for h.Len() > 0 {
		if best.Lower > opt.Tol {
			break // violation certified
		}
		top := (*h)[0]
		if top.ub <= opt.Tol {
			break // satisfaction certified: no remaining node can exceed Tol
		}
		if top.ub-best.Lower <= opt.Tol {
			break // gap closed
		}
		if nodes >= opt.MaxNodes {
			break
		}
		if opt.Deadline > 0 && time.Since(start) > opt.Deadline {
			break
		}
		heap.Pop(h)
		nodes++
		mid := 0.5 * (top.sl + top.sh)
		for _, iv := range [][2]float64{{top.sl, mid}, {mid, top.sh}} {
			ub, pis := ws.nodeBound(iv[0], iv[1])
			for _, pi := range pis {
				consider(pi)
			}
			if ub > best.Lower || ub > opt.Tol {
				heap.Push(h, refNode{sl: iv[0], sh: iv[1], ub: ub})
			} else if ub > closedUB {
				// Pruned node: its UB still caps the maximum on its region.
				closedUB = ub
			}
		}
	}
	best.Upper = math.Max(best.Lower, closedUB)
	if h.Len() > 0 {
		best.Upper = math.Max(best.Upper, (*h)[0].ub)
	}

	best.Nodes = nodes
	best.Elapsed = time.Since(start)
	switch {
	case best.Lower > opt.Tol:
		best.Verdict = Violated
	case best.Upper <= opt.Tol:
		best.Verdict = Satisfied
	default:
		best.Verdict = Unknown
	}
	return best, nil
}

// refWorkspace holds the sorted-hull state reused by every LP subproblem. The
// hull's x-coordinates are the entries of A, which never change across
// nodes, so the sort order is computed once; each node only rebuilds the
// O(n) monotone-chain scan with its own y-values.
type refWorkspace struct {
	p     Problem
	n     int
	order []int // indices sorted by (A[i], then i) ascending
	c     mat.Vector
	hull  []refHullPt
}

func newRefWorkspace(p Problem) *refWorkspace {
	n := len(p.A)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := p.A[order[x]], p.A[order[y]]
		if ax != ay {
			return ax < ay
		}
		return order[x] < order[y]
	})
	return &refWorkspace{
		p: p, n: n, order: order,
		c:    make(mat.Vector, n),
		hull: make([]refHullPt, 0, n),
	}
}

// nodeBound returns a certified upper bound for the node [sl,sh] and the
// candidate points produced by the two LP relaxations (for lower-bounding).
// An interval disjoint from [min a, max a] returns -Inf and no candidates.
func (w *refWorkspace) nodeBound(sl, sh float64) (float64, []mat.Vector) {
	ub := math.Inf(-1)
	var cands []mat.Vector
	for _, s := range []float64{sl, sh} {
		for i := range w.c {
			w.c[i] = s*w.p.W[i] + w.p.Q[i]
		}
		val, pi, feasible := w.refSimplexLP(sl, sh)
		if !feasible {
			return math.Inf(-1), nil
		}
		if val > ub {
			ub = val
		}
		cands = append(cands, pi)
	}
	return ub, cands
}

// ascent performs pairwise-exchange sweeps on g over the simplex, improving
// pi in place. Transferring mass δ from coordinate i to j keeps π on the
// simplex, and g as a function of δ is an explicit quadratic maximised in
// closed form over the feasible transfer interval.
func (w *refWorkspace) ascent(pi mat.Vector, passes int) {
	a, wv, q := w.p.A, w.p.W, w.p.Q
	n := w.n
	if n < 2 {
		return
	}
	s := pi.Dot(a)
	t := pi.Dot(wv)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				da := a[j] - a[i]
				dw := wv[j] - wv[i]
				dq := q[j] - q[i]
				// δ > 0 moves mass from i to j: δ ∈ [-π_j, π_i].
				qa := da * dw
				qb := s*dw + t*da + dq
				lo, hi := -pi[j], pi[i]
				d := refBestQuadOnInterval(qa, qb, lo, hi)
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
			}
		}
		if !improved {
			break
		}
	}
}

// refBestQuadOnInterval maximises qa·x² + qb·x over [lo, hi] (lo ≤ 0 ≤ hi).
func refBestQuadOnInterval(qa, qb, lo, hi float64) float64 {
	bx, bv := 0.0, 0.0
	try := func(x float64) {
		if v := qa*x*x + qb*x; v > bv {
			bx, bv = x, v
		}
	}
	try(lo)
	try(hi)
	if qa < 0 {
		if x := -qb / (2 * qa); x > lo && x < hi {
			try(x)
		}
	}
	return bx
}

// refSimplexLP is the standalone form; it computes the sort order per
// call.
func refSimplexLP(c, a mat.Vector, sl, sh float64) (float64, mat.Vector, bool) {
	order := make([]int, len(a))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := a[order[x]], a[order[y]]
		if ax != ay {
			return ax < ay
		}
		return order[x] < order[y]
	})
	hull := refBuildHull(order, a, c, nil)
	return refEvalHull(hull, len(a), sl, sh)
}

// refSimplexLP maximises w.c·π subject to π ∈ Δ and sl ≤ a·π ≤ sh, with
// a ≥ 0. h(s) = max{c·π : π ∈ Δ, a·π = s} is the upper concave envelope of
// the point set {(aᵢ, cᵢ)}; the optimum over the interval is the
// envelope's peak clamped into [sl, sh]. It returns the optimal value, an
// optimal point (a vertex or a two-vertex mixture), and feasibility.
func (w *refWorkspace) refSimplexLP(sl, sh float64) (float64, mat.Vector, bool) {
	w.hull = refBuildHull(w.order, w.p.A, w.c, w.hull[:0])
	return refEvalHull(w.hull, w.n, sl, sh)
}

func refEvalHull(hull []refHullPt, n int, sl, sh float64) (float64, mat.Vector, bool) {
	aMin, aMax := hull[0].x, hull[len(hull)-1].x
	if sh < aMin-1e-15 || sl > aMax+1e-15 {
		return 0, nil, false
	}
	lo := math.Max(sl, aMin)
	hi := math.Min(sh, aMax)

	// The envelope is concave: its peak vertex is the global max; if the
	// peak lies outside [lo,hi], the max over the interval is at the
	// nearer endpoint.
	peak := 0
	for k := 1; k < len(hull); k++ {
		if hull[k].y > hull[peak].y {
			peak = k
		}
	}
	var val float64
	pi := make(mat.Vector, n)
	switch {
	case hull[peak].x >= lo && hull[peak].x <= hi:
		val = hull[peak].y
		pi[hull[peak].i] = 1
	case hull[peak].x < lo:
		val = refHullInterp(hull, lo, pi)
	default:
		val = refHullInterp(hull, hi, pi)
	}
	return val, pi, true
}

type refHullPt struct {
	x, y float64
	i    int // original index
}

// refBuildHull returns the upper concave hull of {(a_i, c_i)} using a
// precomputed x-ascending index order, appending into dst.
func refBuildHull(order []int, a, c mat.Vector, dst []refHullPt) []refHullPt {
	hull := dst
	for k := 0; k < len(order); k++ {
		idx := order[k]
		// Collapse runs of equal x to their max y (the order is stable on
		// x, so a run is contiguous).
		x, y := a[idx], c[idx]
		for k+1 < len(order) && a[order[k+1]] == x {
			k++
			if c[order[k]] > y {
				y, idx = c[order[k]], order[k]
			}
		}
		p := refHullPt{x: x, y: y, i: idx}
		for len(hull) >= 2 {
			p1, p2 := hull[len(hull)-2], hull[len(hull)-1]
			// Remove p2 if it is below segment p1-p.
			if refCross(p1, p2, p) >= 0 {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	return hull
}

// refCross is the z-component of (b-a)×(c-a); ≥ 0 means b is not strictly
// above the a-c line (so b is redundant for the upper hull).
func refCross(a, b, c refHullPt) float64 {
	return (b.x-a.x)*(c.y-a.y) - (c.x-a.x)*(b.y-a.y)
}

// refHullInterp evaluates the envelope at x and writes the attaining mixture
// into pi (which must be zeroed by the caller). Returns the value.
func refHullInterp(hull []refHullPt, x float64, pi mat.Vector) float64 {
	if x <= hull[0].x {
		pi[hull[0].i] = 1
		return hull[0].y
	}
	last := hull[len(hull)-1]
	if x >= last.x {
		pi[last.i] = 1
		return last.y
	}
	k := sort.Search(len(hull), func(k int) bool { return hull[k].x >= x })
	p1, p2 := hull[k-1], hull[k]
	lam := (p2.x - x) / (p2.x - p1.x)
	pi[p1.i] = lam
	pi[p2.i] = 1 - lam
	return lam*p1.y + (1-lam)*p2.y
}

// refCheckRelease is CheckRelease as it stood: both conditions solved to
// the end, one after the other, whatever the first one found.
func refCheckRelease(chk ReleaseCheck, opt ReleaseOptions) (ReleaseDecision, error) {
	return refCheckReleaseNodes(chk, opt, 0)
}

// refCheckReleaseNodes is refCheckRelease with a node budget per solve (0
// for the default), which keeps the fuzz target's executions short.
func refCheckReleaseNodes(chk ReleaseCheck, opt ReleaseOptions, maxNodes int) (ReleaseDecision, error) {
	n := len(chk.ATilde)
	if len(chk.BTilde) != n || len(chk.CTilde) != n {
		return ReleaseDecision{}, fmt.Errorf("qp: release check length mismatch a=%d b=%d c=%d",
			n, len(chk.BTilde), len(chk.CTilde))
	}
	if chk.Epsilon <= 0 || math.IsNaN(chk.Epsilon) || math.IsInf(chk.Epsilon, 0) {
		return ReleaseDecision{}, fmt.Errorf("qp: epsilon must be positive and finite, got %g", chk.Epsilon)
	}
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	if scale == 0 {
		return ReleaseDecision{OK: true,
			Eq15: Result{Verdict: Satisfied},
			Eq16: Result{Verdict: Satisfied}}, nil
	}
	w1, q1, w2, q2 := refReleaseConditions(chk, scale)

	so := refOptions{Options: opt.Solver, MaxNodes: maxNodes}
	if so.Tol <= 0 {
		so.Tol = 1e-9
	}
	if opt.Deadline > 0 && (so.Deadline == 0 || so.Deadline > opt.Deadline) {
		so.Deadline = opt.Deadline
	}
	dec := ReleaseDecision{}
	deadline := time.Now().Add(opt.Deadline)

	r15, err := refSolve(Problem{A: chk.ATilde, W: w1, Q: q1}, so)
	if err != nil {
		return ReleaseDecision{}, fmt.Errorf("qp: Eq.15 solve: %w", err)
	}
	dec.Eq15 = r15.Result
	if opt.Deadline > 0 {
		if rem := time.Until(deadline); rem <= 0 {
			so.Deadline = time.Nanosecond
		} else {
			so.Deadline = rem
		}
	}
	r16, err := refSolve(Problem{A: chk.ATilde, W: w2, Q: q2}, so)
	if err != nil {
		return ReleaseDecision{}, fmt.Errorf("qp: Eq.16 solve: %w", err)
	}
	dec.Eq16 = r16.Result

	dec.OK = r15.Verdict == Satisfied && r16.Verdict == Satisfied
	dec.Conservative = !dec.OK &&
		r15.Verdict != Violated && r16.Verdict != Violated
	return dec, nil
}

// refReleaseConditions builds the normalised linear data of the two
// conditions in four fresh vectors.
func refReleaseConditions(chk ReleaseCheck, scale float64) (w1, q1, w2, q2 mat.Vector) {
	n := len(chk.ATilde)
	inv := 1 / scale
	b := chk.BTilde.Clone().Scale(inv)
	c := chk.CTilde.Clone().Scale(inv)
	eEps := math.Exp(chk.Epsilon)
	w1 = make(mat.Vector, n)
	q1 = b
	w2 = make(mat.Vector, n)
	q2 = make(mat.Vector, n)
	for i := 0; i < n; i++ {
		w1[i] = (eEps-1)*b[i] - eEps*c[i]
		w2[i] = (eEps-1)*b[i] + c[i]
		q2[i] = -eEps * b[i]
	}
	return w1, q1, w2, q2
}
