// Package grid models the discretised map the paper works on: a rectangular
// grid of m = W×H cells, each cell one state sᵢ of the location domain
// S = {s₁,…,s_m}. It provides cell geometry (centers, Euclidean distances in
// user units such as km), index conversions and region vectors
// s ∈ {0,1}^m used by PRESENCE/PATTERN events.
package grid

import (
	"fmt"
	"math"

	"priste/internal/mat"
)

// Grid is a W×H rectangular map. States are numbered row-major:
// state = y*W + x with x ∈ [0,W), y ∈ [0,H). CellSize is the edge length of
// a cell in user units (e.g. km); distances returned by Dist are in the
// same units.
type Grid struct {
	W, H     int
	CellSize float64
}

// New returns a W×H grid with the given cell edge length.
func New(w, h int, cellSize float64) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("grid: dimensions must be positive, got %d×%d", w, h)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("grid: cell size must be positive and finite, got %g", cellSize)
	}
	return &Grid{W: w, H: h, CellSize: cellSize}, nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(w, h int, cellSize float64) *Grid {
	g, err := New(w, h, cellSize)
	if err != nil {
		panic(err)
	}
	return g
}

// States returns the number of cells m = W×H.
func (g *Grid) States() int { return g.W * g.H }

// XY converts a state index to grid coordinates.
func (g *Grid) XY(state int) (x, y int) {
	g.check(state)
	return state % g.W, state / g.W
}

// State converts grid coordinates to a state index.
func (g *Grid) State(x, y int) int {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		panic(fmt.Sprintf("grid: coordinates (%d,%d) outside %d×%d", x, y, g.W, g.H))
	}
	return y*g.W + x
}

// Contains reports whether (x,y) lies on the grid.
func (g *Grid) Contains(x, y int) bool {
	return x >= 0 && x < g.W && y >= 0 && y < g.H
}

// Center returns the center of a cell in user units.
func (g *Grid) Center(state int) (cx, cy float64) {
	x, y := g.XY(state)
	return (float64(x) + 0.5) * g.CellSize, (float64(y) + 0.5) * g.CellSize
}

// Dist returns the Euclidean distance between the centers of two cells in
// user units.
func (g *Grid) Dist(a, b int) float64 {
	ax, ay := g.Center(a)
	bx, by := g.Center(b)
	return math.Hypot(ax-bx, ay-by)
}

// Snap returns the state whose cell contains (px,py), clamping coordinates
// that fall outside the map onto the boundary. Used to discretise continuous
// planar-Laplace samples.
func (g *Grid) Snap(px, py float64) int {
	x := int(math.Floor(px / g.CellSize))
	y := int(math.Floor(py / g.CellSize))
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return g.State(x, y)
}

// DistanceMatrix returns the m×m matrix of pairwise cell-center distances.
func (g *Grid) DistanceMatrix() *mat.Matrix {
	m := g.States()
	d := mat.NewMatrix(m, m)
	centers := make([][2]float64, m)
	for s := 0; s < m; s++ {
		cx, cy := g.Center(s)
		centers[s] = [2]float64{cx, cy}
	}
	for i := 0; i < m; i++ {
		row := d.Row(i)
		for j := 0; j < m; j++ {
			row[j] = math.Hypot(centers[i][0]-centers[j][0], centers[i][1]-centers[j][1])
		}
	}
	return d
}

func (g *Grid) check(state int) {
	if state < 0 || state >= g.States() {
		panic(fmt.Sprintf("grid: state %d outside [0,%d)", state, g.States()))
	}
}

// Region is an indicator vector s ∈ {0,1}^m marking a set of states
// (Definition II.2 of the paper uses column vectors; we store them densely).
type Region struct {
	mask mat.Vector
}

// NewRegion returns an empty region over m states.
func NewRegion(m int) *Region {
	return &Region{mask: mat.NewVector(m)}
}

// RegionOf returns a region over m states containing the given states.
func RegionOf(m int, states ...int) (*Region, error) {
	r := NewRegion(m)
	for _, s := range states {
		if s < 0 || s >= m {
			return nil, fmt.Errorf("grid: region state %d outside [0,%d)", s, m)
		}
		r.mask[s] = 1
	}
	return r, nil
}

// MustRegionOf is RegionOf that panics on error.
func MustRegionOf(m int, states ...int) *Region {
	r, err := RegionOf(m, states...)
	if err != nil {
		panic(err)
	}
	return r
}

// RegionRange returns a region containing states lo..hi inclusive, matching
// the paper's notation S = {lo:hi} (1-based in the paper; this API is
// 0-based).
func RegionRange(m, lo, hi int) (*Region, error) {
	if lo < 0 || hi >= m || lo > hi {
		return nil, fmt.Errorf("grid: region range [%d,%d] invalid for m=%d", lo, hi, m)
	}
	r := NewRegion(m)
	for s := lo; s <= hi; s++ {
		r.mask[s] = 1
	}
	return r, nil
}

// RegionRect returns the region of all cells in the axis-aligned rectangle
// [x0,x1]×[y0,y1] (inclusive).
func RegionRect(g *Grid, x0, y0, x1, y1 int) (*Region, error) {
	if !g.Contains(x0, y0) || !g.Contains(x1, y1) || x0 > x1 || y0 > y1 {
		return nil, fmt.Errorf("grid: rectangle (%d,%d)-(%d,%d) invalid for %d×%d grid",
			x0, y0, x1, y1, g.W, g.H)
	}
	r := NewRegion(g.States())
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			r.mask[g.State(x, y)] = 1
		}
	}
	return r, nil
}

// Len returns the size m of the underlying state space.
func (r *Region) Len() int { return len(r.mask) }

// Contains reports whether state s belongs to the region.
func (r *Region) Contains(s int) bool { return r.mask[s] != 0 }

// Add inserts state s.
func (r *Region) Add(s int) {
	if s < 0 || s >= len(r.mask) {
		panic(fmt.Sprintf("grid: region state %d outside [0,%d)", s, len(r.mask)))
	}
	r.mask[s] = 1
}

// Count returns the number of states in the region (the "event width" of
// the paper's runtime experiments).
func (r *Region) Count() int {
	n := 0
	for _, v := range r.mask {
		if v != 0 {
			n++
		}
	}
	return n
}

// States returns the sorted member states.
func (r *Region) States() []int {
	out := make([]int, 0, r.Count())
	for s, v := range r.mask {
		if v != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Mask returns the indicator vector; callers must not mutate it.
func (r *Region) Mask() mat.Vector { return r.mask }

// IsEmpty reports whether the region has no states.
func (r *Region) IsEmpty() bool { return r.Count() == 0 }
