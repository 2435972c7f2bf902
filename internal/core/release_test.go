package core

import (
	"runtime"
	"testing"

	"priste/internal/markov"
	"priste/internal/oracle"
	"priste/internal/world"
)

// TestReleaseMovesNoRelease: Release drops a history-independent
// session's view and the next miss rebuilds it from the tag log, so a
// session released between steps — its storage taken by other sessions
// meanwhile — releases exactly what one never released does.
func TestReleaseMovesNoRelease(t *testing.T) {
	plan := scenarioPlan(t, oracle.Lookup("10x10"), world.KernelAuto, nil)
	const steps = 12
	traj := oracle.Walk(4, plan.States(), steps)
	ref, err := plan.NewSession(NewSessionRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(traj)
	if err != nil {
		t.Fatal(err)
	}

	fw, err := plan.NewSession(NewSessionRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for k, loc := range traj {
		got, err := fw.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Obs != want[k].Obs || got.Alpha != want[k].Alpha || got.Attempts != want[k].Attempts {
			t.Fatalf("step %d: released %d at %v after %d attempts, reference %d at %v after %d",
				k, got.Obs, got.Alpha, got.Attempts, want[k].Obs, want[k].Alpha, want[k].Attempts)
		}
		fw.Release()
		if fw.quants != nil || fw.applied != 0 || fw.cols != nil {
			t.Fatalf("step %d: Release kept the view", k)
		}
		// Another session takes the storage and writes it.
		other, err := plan.NewSession(NewSessionRNG(int64(100 + k)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Run(oracle.Walk(int64(k), plan.States(), 3)); err != nil {
			t.Fatal(err)
		}
		other.Release()
	}
	if fw.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("fingerprint %#x, reference %#x", fw.Fingerprint(), ref.Fingerprint())
	}
	if _, err := fw.RealizedLoss(0, markov.Uniform(plan.States())); err != nil || fw.applied != steps {
		t.Fatalf("RealizedLoss after Release: %v, %d tags applied", err, fw.applied)
	}
}

// TestReleaseEndsStatefulSession: a δ-location-set session's mechanism
// state has consumed its log and no replay rebuilds it, so after Release
// it refuses to step rather than release from the wrong posterior.
func TestReleaseEndsStatefulSession(t *testing.T) {
	plan := scenarioPlan(t, oracle.Lookup("delta-5x5"), world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(oracle.Walk(5, plan.States(), 3)); err != nil {
		t.Fatal(err)
	}
	fw.Release()
	if _, err := fw.Step(0); err == nil {
		t.Fatal("a released stateful session stepped")
	}
	if _, err := fw.RealizedLoss(0, markov.Uniform(plan.States())); err == nil {
		t.Fatal("a released stateful session rebuilt its view")
	}
}

// TestReleaseCycleAllocs: in steady state a session's life — create, 12
// all-miss steps on a 10×10 plan, Release — reuses the view the previous
// session released, and allocates less than one m×m matrix. Before views
// were pooled it allocated five.
func TestReleaseCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	plan := scenarioPlan(t, oracle.Lookup("10x10"), world.KernelAuto, nil)
	m := plan.States()
	cycle := func(seed int64) {
		fw, err := plan.NewSession(NewSessionRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Run(oracle.Walk(seed, m, 12)); err != nil {
			t.Fatal(err)
		}
		fw.Release()
	}
	for s := int64(0); s < 3; s++ {
		cycle(s)
	}
	const cycles = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := int64(0); s < cycles; s++ {
		cycle(100 + s)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	if matrix := uint64(8 * m * m); perCycle >= matrix {
		t.Fatalf("a create → 12 steps → Release cycle allocated %d B, an m×m matrix is %d B", perCycle, matrix)
	}
	t.Logf("%d B per cycle (m = %d)", perCycle, m)
}
