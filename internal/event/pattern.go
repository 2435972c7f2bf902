package event

import (
	"fmt"

	"priste/internal/grid"
)

// Pattern is the PATTERN event of Definition II.3: the user appears in
// Regions[0], Regions[1], … sequentially at timestamps Start, Start+1, ….
// It generalises a single sensitive trajectory (all regions singletons).
type Pattern struct {
	Regions []*grid.Region
	Start   int
}

// NewPattern validates and returns a PATTERN event.
func NewPattern(regions []*grid.Region, start int) (*Pattern, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("event: pattern needs at least one region")
	}
	if start < 0 {
		return nil, fmt.Errorf("event: pattern start %d negative", start)
	}
	m := regions[0].Len()
	for i, r := range regions {
		if r == nil || r.IsEmpty() {
			return nil, fmt.Errorf("event: pattern region %d is empty", i)
		}
		if r.Len() != m {
			return nil, fmt.Errorf("event: pattern region %d has %d states, want %d", i, r.Len(), m)
		}
	}
	return &Pattern{Regions: cloneRegions(regions), Start: start}, nil
}

func cloneRegions(rs []*grid.Region) []*grid.Region {
	out := make([]*grid.Region, len(rs))
	copy(out, rs)
	return out
}

// MustNewPattern is NewPattern that panics on error.
func MustNewPattern(regions []*grid.Region, start int) *Pattern {
	p, err := NewPattern(regions, start)
	if err != nil {
		panic(err)
	}
	return p
}

// States returns the size m of the state space.
func (p *Pattern) States() int { return p.Regions[0].Len() }

// Window returns the inclusive event window [Start, Start+len(Regions)-1].
func (p *Pattern) Window() (start, end int) {
	return p.Start, p.Start + len(p.Regions) - 1
}

// RegionAt returns the region that must contain the user at timestamp t.
func (p *Pattern) RegionAt(t int) *grid.Region {
	start, end := p.Window()
	if t < start || t > end {
		panic(fmt.Sprintf("event: RegionAt(%d) outside window [%d,%d]", t, start, end))
	}
	return p.Regions[t-start]
}

// Sticky reports whether the event, once entered, remains true regardless
// of later movement. PATTERN is not sticky: the trajectory must keep
// satisfying every region in sequence.
func (p *Pattern) Sticky() bool { return false }

// Truth evaluates the event on a full trajectory.
func (p *Pattern) Truth(traj []int) bool {
	start, end := p.Window()
	if len(traj) <= end {
		panic(fmt.Sprintf("event: trajectory of length %d does not cover window end %d", len(traj), end))
	}
	for t := start; t <= end; t++ {
		if !p.Regions[t-start].Contains(traj[t]) {
			return false
		}
	}
	return true
}

// Expr expands the event into
// ⋀_{t} ⋁_{s∈Regions[t-Start]} (u_t = s), as in Example II.2.
func (p *Pattern) Expr() *Expr {
	start, end := p.Window()
	var conj []*Expr
	for t := start; t <= end; t++ {
		var disj []*Expr
		for _, s := range p.Regions[t-start].States() {
			disj = append(disj, Pred(t, s))
		}
		conj = append(conj, Or(disj...))
	}
	return And(conj...)
}

// Width returns the maximum region size across the window.
func (p *Pattern) Width() int {
	w := 0
	for _, r := range p.Regions {
		if c := r.Count(); c > w {
			w = c
		}
	}
	return w
}

// Length returns the number of timestamps in the window.
func (p *Pattern) Length() int { return len(p.Regions) }

// String renders the event in the paper's notation.
func (p *Pattern) String() string {
	start, end := p.Window()
	return fmt.Sprintf("PATTERN(len=%d, width=%d, T={%d:%d})", p.Length(), p.Width(), start, end)
}

// Event is the common interface of PRESENCE and PATTERN consumed by the
// two-possible-world quantifier. Start/End are the inclusive 0-based event
// window; RegionAt gives the region relevant at an in-window timestamp;
// Sticky distinguishes the "once true, always true" dynamics of PRESENCE
// from the sequential constraint of PATTERN.
type Event interface {
	States() int
	Window() (start, end int)
	RegionAt(t int) *grid.Region
	Sticky() bool
	Truth(traj []int) bool
	Expr() *Expr
	String() string
}

var (
	_ Event = (*Presence)(nil)
	_ Event = (*Pattern)(nil)
)
