package event

import (
	"fmt"

	"priste/internal/grid"
)

// Presence is the PRESENCE event of Definition II.2: the user appears in
// Region at some timestamp in [Start, End] (inclusive, 0-based). It
// generalises a single sensitive location (|Region| = 1, Start = End).
type Presence struct {
	Region     *grid.Region
	Start, End int
}

// NewPresence validates and returns a PRESENCE event.
func NewPresence(region *grid.Region, start, end int) (*Presence, error) {
	if region == nil || region.IsEmpty() {
		return nil, fmt.Errorf("event: presence region is empty")
	}
	if start < 0 || end < start {
		return nil, fmt.Errorf("event: presence window [%d,%d] invalid", start, end)
	}
	return &Presence{Region: region, Start: start, End: end}, nil
}

// MustNewPresence is NewPresence that panics on error.
func MustNewPresence(region *grid.Region, start, end int) *Presence {
	p, err := NewPresence(region, start, end)
	if err != nil {
		panic(err)
	}
	return p
}

// States returns the size m of the state space.
func (p *Presence) States() int { return p.Region.Len() }

// Window returns the inclusive event window.
func (p *Presence) Window() (start, end int) { return p.Start, p.End }

// RegionAt returns the region constraining timestamp t; for PRESENCE it is
// the same region at every in-window timestamp.
func (p *Presence) RegionAt(t int) *grid.Region {
	if t < p.Start || t > p.End {
		panic(fmt.Sprintf("event: RegionAt(%d) outside window [%d,%d]", t, p.Start, p.End))
	}
	return p.Region
}

// Sticky reports whether the event, once true, remains true (PRESENCE
// semantics — the OR of in-window predicates).
func (p *Presence) Sticky() bool { return true }

// Truth evaluates the event on a full trajectory.
func (p *Presence) Truth(traj []int) bool {
	if len(traj) <= p.End {
		panic(fmt.Sprintf("event: trajectory of length %d does not cover window end %d", len(traj), p.End))
	}
	for t := p.Start; t <= p.End; t++ {
		if p.Region.Contains(traj[t]) {
			return true
		}
	}
	return false
}

// Expr expands the event into its Boolean expression
// ⋁_{t∈[Start,End]} ⋁_{s∈Region} (u_t = s), as in Example II.1.
func (p *Presence) Expr() *Expr {
	var kids []*Expr
	for t := p.Start; t <= p.End; t++ {
		for _, s := range p.Region.States() {
			kids = append(kids, Pred(t, s))
		}
	}
	return Or(kids...)
}

// Width returns the number of states in the region (the paper's "event
// width" runtime parameter).
func (p *Presence) Width() int { return p.Region.Count() }

// String renders the event in the paper's notation.
func (p *Presence) String() string {
	return fmt.Sprintf("PRESENCE(|S|=%d, T={%d:%d})", p.Region.Count(), p.Start, p.End)
}
