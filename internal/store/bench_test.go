package store

import (
	"fmt"
	"sync/atomic"
	"testing"

	"priste/internal/core"
	"priste/internal/world"
)

// benchLife journals a session and n steps of it from T 0.
func benchLife(s Store, id string, n int) error {
	gen, err := s.CreateSession(testMeta(id))
	if err != nil {
		return err
	}
	fp := world.FingerprintSeed
	rng := []byte("pcg:0123456789abcdef")
	for i := 0; i < n; i++ {
		fp = world.FingerprintFold(fp, uint64(i), i%36)
		if err := s.AppendStep(id, gen, StepRecord{T: i, Tag: core.ReleaseTag{AlphaBits: uint64(i), Obs: i % 36}, Fingerprint: fp, RNG: rng}); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkSessionLifecycle prices one session's whole life in the store
// — create, 12 step appends, delete — beside 256 resident sessions, from
// GOMAXPROCS goroutines at once (run with -cpu 1,2). ns/op is per
// session.
func BenchmarkSessionLifecycle(b *testing.B) {
	s, err := Open(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.LoadSessions(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := benchLife(s, fmt.Sprintf("resident-%d", i), 12); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := fmt.Sprintf("life-%d", next.Add(1))
			err := benchLife(s, id, 12)
			if err == nil {
				err = s.DeleteSession(id)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLoadSessions prices a restart's store load: Open and
// LoadSessions over 1 024 sessions of 48 steps each.
func BenchmarkLoadSessions(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if err := benchLife(s, fmt.Sprintf("s-%d", i), 48); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, false)
		if err != nil {
			b.Fatal(err)
		}
		states, err := s.LoadSessions()
		if err != nil || len(states) != 1024 {
			b.Fatalf("loaded %d sessions, %v", len(states), err)
		}
		s.Close()
	}
}
