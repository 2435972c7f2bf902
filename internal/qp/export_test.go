package qp

import "math"

// The reference solver (reference_test.go), for the external tests that
// harvest their problems from real release loops and so must import the
// packages that import this one.
var (
	RefCheckRelease = refCheckRelease
	InBracket       = inBracket
)

// Conditions returns the two normalised problems a release check solves.
func Conditions(chk ReleaseCheck) (eq15, eq16 Problem) {
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	w1, q1, w2, q2 := refReleaseConditions(chk, scale)
	return Problem{A: chk.ATilde, W: w1, Q: q1}, Problem{A: chk.ATilde, W: w2, Q: q2}
}
