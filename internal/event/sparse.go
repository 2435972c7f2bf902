package event

import (
	"fmt"
	"sort"

	"priste/internal/grid"
)

// The paper notes (§II-B) that PRESENCE and PATTERN "include the cases
// when the time T is not consecutive" but, for simplicity, evaluates only
// consecutive windows. This file implements the non-consecutive variants.
// They plug into the two-possible-world quantifier unchanged: a PRESENCE
// gap timestamp carries an empty region (no way to enter the true world),
// and a PATTERN gap timestamp carries the full map (no constraint, so the
// true world persists).

// SparsePresence is a PRESENCE event over an arbitrary set of timestamps:
// true iff the user is inside Region at at least one listed timestamp.
type SparsePresence struct {
	Region *grid.Region
	times  []int // sorted, unique
	inTime map[int]bool
	empty  *grid.Region
}

// NewSparsePresence validates and returns the event. times must be
// non-empty; duplicates are removed.
func NewSparsePresence(region *grid.Region, times []int) (*SparsePresence, error) {
	if region == nil || region.IsEmpty() {
		return nil, fmt.Errorf("event: sparse presence region is empty")
	}
	ts, err := normalizeTimes(times)
	if err != nil {
		return nil, err
	}
	p := &SparsePresence{Region: region, times: ts, inTime: timeSet(ts), empty: grid.NewRegion(region.Len())}
	return p, nil
}

// States returns the state-space size m.
func (p *SparsePresence) States() int { return p.Region.Len() }

// Window returns the inclusive [min, max] of the timestamp set.
func (p *SparsePresence) Window() (start, end int) {
	return p.times[0], p.times[len(p.times)-1]
}

// RegionAt returns the region at listed timestamps and the empty region at
// in-window gaps (which the quantifier's PRESENCE dynamics treat as "no
// entry possible here").
func (p *SparsePresence) RegionAt(t int) *grid.Region {
	start, end := p.Window()
	if t < start || t > end {
		panic(fmt.Sprintf("event: RegionAt(%d) outside window [%d,%d]", t, start, end))
	}
	if p.inTime[t] {
		return p.Region
	}
	return p.empty
}

// Sticky reports PRESENCE semantics (once true, always true).
func (p *SparsePresence) Sticky() bool { return true }

// Truth evaluates the event on a full trajectory.
func (p *SparsePresence) Truth(traj []int) bool {
	_, end := p.Window()
	if len(traj) <= end {
		panic(fmt.Sprintf("event: trajectory of length %d does not cover window end %d", len(traj), end))
	}
	for _, t := range p.times {
		if p.Region.Contains(traj[t]) {
			return true
		}
	}
	return false
}

// Expr expands into ⋁_{t∈times} ⋁_{s∈Region} (u_t = s).
func (p *SparsePresence) Expr() *Expr {
	var kids []*Expr
	for _, t := range p.times {
		for _, s := range p.Region.States() {
			kids = append(kids, Pred(t, s))
		}
	}
	return Or(kids...)
}

// String renders the event.
func (p *SparsePresence) String() string {
	return fmt.Sprintf("PRESENCE(|S|=%d, T=%v)", p.Region.Count(), p.times)
}

// SparsePattern is a PATTERN event constraining an arbitrary set of
// timestamps: true iff the user is inside Regions[k] at Times[k] for every
// k. Timestamps between constrained ones are unconstrained.
type SparsePattern struct {
	times   []int
	regions map[int]*grid.Region
	full    *grid.Region
	m       int
}

// NewSparsePattern validates and returns the event. times and regions are
// parallel; duplicate timestamps are rejected.
func NewSparsePattern(times []int, regions []*grid.Region) (*SparsePattern, error) {
	if len(times) == 0 || len(times) != len(regions) {
		return nil, fmt.Errorf("event: sparse pattern needs parallel non-empty times/regions, got %d/%d",
			len(times), len(regions))
	}
	m := regions[0].Len()
	byTime := make(map[int]*grid.Region, len(times))
	for i, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("event: negative timestamp %d", t)
		}
		r := regions[i]
		if r == nil || r.IsEmpty() {
			return nil, fmt.Errorf("event: sparse pattern region %d is empty", i)
		}
		if r.Len() != m {
			return nil, fmt.Errorf("event: sparse pattern region %d has %d states, want %d", i, r.Len(), m)
		}
		if _, dup := byTime[t]; dup {
			return nil, fmt.Errorf("event: duplicate timestamp %d", t)
		}
		byTime[t] = r
	}
	ts := make([]int, 0, len(byTime))
	for t := range byTime {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	full := grid.NewRegion(m)
	for s := 0; s < m; s++ {
		full.Add(s)
	}
	return &SparsePattern{times: ts, regions: byTime, full: full, m: m}, nil
}

// States returns the state-space size m.
func (p *SparsePattern) States() int { return p.m }

// Window returns the inclusive [min, max] of the constrained timestamps.
func (p *SparsePattern) Window() (start, end int) {
	return p.times[0], p.times[len(p.times)-1]
}

// RegionAt returns the constraining region, or the full map at
// unconstrained in-window timestamps (the quantifier's PATTERN dynamics
// then keep the true world intact there).
func (p *SparsePattern) RegionAt(t int) *grid.Region {
	start, end := p.Window()
	if t < start || t > end {
		panic(fmt.Sprintf("event: RegionAt(%d) outside window [%d,%d]", t, start, end))
	}
	if r, ok := p.regions[t]; ok {
		return r
	}
	return p.full
}

// Sticky reports PATTERN semantics (constraints must keep holding).
func (p *SparsePattern) Sticky() bool { return false }

// Truth evaluates the event on a full trajectory.
func (p *SparsePattern) Truth(traj []int) bool {
	_, end := p.Window()
	if len(traj) <= end {
		panic(fmt.Sprintf("event: trajectory of length %d does not cover window end %d", len(traj), end))
	}
	for _, t := range p.times {
		if !p.regions[t].Contains(traj[t]) {
			return false
		}
	}
	return true
}

// Expr expands into ⋀_{t∈times} ⋁_{s∈Regions[t]} (u_t = s).
func (p *SparsePattern) Expr() *Expr {
	var conj []*Expr
	for _, t := range p.times {
		var disj []*Expr
		for _, s := range p.regions[t].States() {
			disj = append(disj, Pred(t, s))
		}
		conj = append(conj, Or(disj...))
	}
	return And(conj...)
}

// String renders the event.
func (p *SparsePattern) String() string {
	return fmt.Sprintf("PATTERN(sparse, T=%v)", p.times)
}

var (
	_ Event = (*SparsePresence)(nil)
	_ Event = (*SparsePattern)(nil)
)

func normalizeTimes(times []int) ([]int, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("event: empty timestamp set")
	}
	seen := make(map[int]bool, len(times))
	var ts []int
	for _, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("event: negative timestamp %d", t)
		}
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	sort.Ints(ts)
	return ts, nil
}

func timeSet(ts []int) map[int]bool {
	m := make(map[int]bool, len(ts))
	for _, t := range ts {
		m[t] = true
	}
	return m
}
