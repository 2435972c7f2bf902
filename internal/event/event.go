// Package event defines spatiotemporal events (Definition II.1 of the
// paper): Boolean expressions over (location, time) predicates u_t = s_i,
// together with the two representative event families the paper focuses on —
// PRESENCE (Definition II.2) and PATTERN (Definition II.3) — and the naive
// exponential-time evaluators of Appendix B that serve as the runtime
// baseline in Fig. 14.
//
// Timestamps are 0-based throughout this code base; the paper's 1-based
// notation PRESENCE(S={1:10}, T={4:8}) corresponds to states 0..9 and
// timestamps 3..7 here.
package event

import (
	"fmt"
	"strings"
)

// Op enumerates Boolean expression node kinds.
type Op uint8

const (
	// OpPred is a leaf predicate u_t = s.
	OpPred Op = iota
	// OpAnd is conjunction over children.
	OpAnd
	// OpOr is disjunction over children.
	OpOr
	// OpNot is negation of a single child.
	OpNot
)

// Predicate is the atom u_t = s: "the user is at state s at timestamp t".
type Predicate struct {
	T     int // 0-based timestamp
	State int
}

// Expr is a node of a Boolean expression over predicates.
type Expr struct {
	Op   Op
	Pred Predicate // valid when Op == OpPred
	Kids []*Expr   // valid for OpAnd/OpOr (≥1 child) and OpNot (exactly 1)
}

// Pred returns the leaf expression u_t = s.
func Pred(t, state int) *Expr {
	return &Expr{Op: OpPred, Pred: Predicate{T: t, State: state}}
}

// And returns the conjunction of the given expressions.
func And(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// Or returns the disjunction of the given expressions.
func Or(kids ...*Expr) *Expr { return nary(OpOr, kids) }

// not returns the negation of x. The served event classes have no
// negation (Compile rejects it); tests use it to build complement events
// for the naive evaluators.
func not(x *Expr) *Expr {
	if x == nil {
		panic("event: not(nil)")
	}
	return &Expr{Op: OpNot, Kids: []*Expr{x}}
}

func nary(op Op, kids []*Expr) *Expr {
	if len(kids) == 0 {
		panic("event: And/Or need at least one child")
	}
	for _, k := range kids {
		if k == nil {
			panic("event: nil child expression")
		}
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return &Expr{Op: op, Kids: kids}
}

// Eval returns the truth value of the expression on a full trajectory,
// where traj[t] is the user's state at timestamp t. It panics if the
// expression references a timestamp beyond the trajectory.
func (e *Expr) Eval(traj []int) bool {
	switch e.Op {
	case OpPred:
		if e.Pred.T < 0 || e.Pred.T >= len(traj) {
			panic(fmt.Sprintf("event: predicate references t=%d, trajectory has %d steps", e.Pred.T, len(traj)))
		}
		return traj[e.Pred.T] == e.Pred.State
	case OpAnd:
		for _, k := range e.Kids {
			if !k.Eval(traj) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.Kids {
			if k.Eval(traj) {
				return true
			}
		}
		return false
	case OpNot:
		return !e.Kids[0].Eval(traj)
	default:
		panic(fmt.Sprintf("event: unknown op %d", e.Op))
	}
}

// MaxTime returns the largest timestamp referenced by any predicate.
func (e *Expr) MaxTime() int {
	max := 0
	e.walk(func(p Predicate) {
		if p.T > max {
			max = p.T
		}
	})
	return max
}

func (e *Expr) walk(f func(Predicate)) {
	if e.Op == OpPred {
		f(e.Pred)
		return
	}
	for _, k := range e.Kids {
		k.walk(f)
	}
}

// String renders the expression with the paper's notation, e.g.
// "((u3=s1) ∨ (u3=s2)) ∧ (u4=s1)".
func (e *Expr) String() string {
	switch e.Op {
	case OpPred:
		return fmt.Sprintf("(u%d=s%d)", e.Pred.T, e.Pred.State)
	case OpNot:
		return "¬" + e.Kids[0].String()
	case OpAnd, OpOr:
		sep := " ∧ "
		if e.Op == OpOr {
			sep = " ∨ "
		}
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	default:
		return "?"
	}
}
