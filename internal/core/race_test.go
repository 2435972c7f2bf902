//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// what it is given: allocation counts through a pool mean nothing there.
const raceEnabled = true
