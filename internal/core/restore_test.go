package core

import (
	"errors"
	"testing"

	"priste/internal/oracle"
	"priste/internal/world"
)

func TestRestoreFingerprintMismatch(t *testing.T) {
	plan := scenarioPlan(t, oracle.Lookup("laplace-5x5"), world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	snap, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Tags[1].Obs = (snap.Tags[1].Obs + 1) % plan.States()
	if _, err := plan.Restore(snap, NewSessionRNG(0)); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("tampered tag log: err = %v, want ErrFingerprintMismatch", err)
	}
}

func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	plan := scenarioPlan(t, oracle.Lookup("laplace-5x5"), world.KernelAuto, nil)
	snap := Snapshot{T: 3, Fingerprint: world.FingerprintSeed}
	if _, err := plan.Restore(snap, NewSessionRNG(0)); err == nil {
		t.Fatal("T/tag-count mismatch accepted")
	}
	snap = Snapshot{Tags: []ReleaseTag{{Obs: 999, AlphaBits: 0}}, T: 1}
	if _, err := plan.Restore(snap, NewSessionRNG(0)); err == nil {
		t.Fatal("out-of-range observation accepted")
	}
}

// TestSessionRNGRoundTrip checks marshal/unmarshal resumes the exact
// draw sequence.
func TestSessionRNGRoundTrip(t *testing.T) {
	a := NewSessionRNG(99)
	for i := 0; i < 17; i++ {
		a.Float64()
	}
	state, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := NewSessionRNG(0)
	if err := b.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d diverged: %g != %g", i, x, y)
		}
	}
}
