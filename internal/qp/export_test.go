package qp

import "math"

// The reference solver (reference_test.go), for the external tests that
// harvest their problems from real release loops and so must import the
// packages that import this one.
var (
	RefCheckRelease = refCheckRelease
	InBracket       = inBracket
	SameDecision    = sameDecision
)

// Conditions returns the two normalised problems a release check solves.
func Conditions(chk ReleaseCheck) (eq15, eq16 Problem) {
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	w1, q1, w2, q2 := refReleaseConditions(chk, scale)
	return Problem{A: chk.ATilde, W: w1, Q: q1}, Problem{A: chk.ATilde, W: w2, Q: q2}
}

// ScalarScan turns the edge screen off, so every pair goes through the
// scan's own scalar test, and returns the function that turns it back on.
func ScalarScan() (restore func()) {
	screen = false
	return func() { screen = true }
}
