package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"priste/internal/api"
	"priste/internal/core"
)

// TestViewRecyclingUnderRaces: a closed session's operator view goes back
// to the plan's pools and the next session that misses takes it, so a
// view released while its owner still steps would be written by two
// sessions at once. Sessions are created, stepped, deleted with steps
// queued and in flight, and LRU-evicted by each other's creates, from
// several goroutines. Every release that comes back, and every exported
// session's tags and fingerprint, must equal a reference run of the same
// seed and trajectory on a framework of its own, whose view is never
// released. Run under -race at several widths.
//
// Barriers split each round into phases, so what the run exercises does
// not hang on how the goroutines are scheduled:
//  1. Each goroutine creates one session, waits for all its releases and
//     checks its export. At most `goroutines` sessions are live, so none
//     is evicted.
//  2. Each creates perRound−1 more and enqueues the steps of one of
//     them. All goroutines·perRound sessions of the round have then been
//     created against MaxSessions 2·goroutines, so at least that many
//     minus the cap were evicted, steps queued or not.
//  3. Each deletes its sessions: the first if it is still live, the one
//     with steps after a few releases came back with the rest queued and
//     one in flight, the others right after enqueueing their steps.
//
// A last barrier ends the round with nothing live.
func TestViewRecyclingUnderRaces(t *testing.T) {
	const (
		goroutines = 4
		perRound   = 3 // sessions a goroutine creates per round
		rounds     = 4
		steps      = 10
	)
	cfg := testConfig()
	cfg.MaxSessions = 2 * goroutines // < goroutines·perRound: every round evicts
	srv := newTestServer(t, cfg)
	m := cfg.GridW * cfg.GridH

	type reference struct {
		tags []core.ReleaseTag
		fps  []uint64 // fps[k]: the fingerprint after k releases
	}
	n := goroutines * perRound * rounds
	traj := func(i, k int) int { return (i*7 + k*5) % m }
	refs := make([]reference, n)
	for i := range refs {
		fw := directFramework(t, cfg, int64(i+1))
		refs[i].fps = append(refs[i].fps, fw.Fingerprint())
		for k := 0; k < steps; k++ {
			if _, err := fw.Step(traj(i, k)); err != nil {
				t.Fatal(err)
			}
			refs[i].fps = append(refs[i].fps, fw.Fingerprint())
		}
		refs[i].tags = fw.Tags()
	}

	type live struct {
		i     int
		id    string
		dones []<-chan api.StepOutcome
	}
	create := func(i int) (live, error) {
		s := live{i: i, id: fmt.Sprintf("recycle-%d", i)}
		seed := int64(i + 1)
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: s.id, Seed: &seed}); err != nil {
			return s, fmt.Errorf("create %s: %w", s.id, err)
		}
		return s, nil
	}
	// enqueue enqueues the session's steps until one is refused because
	// another goroutine's create evicted it.
	enqueue := func(s *live) error {
		for k := 0; k < steps; k++ {
			done, err := srv.StepAsync(bg, s.id, traj(s.i, k))
			if err != nil {
				if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrSessionClosed) {
					return fmt.Errorf("%s enqueue %d: %w", s.id, k, err)
				}
				break
			}
			s.dones = append(s.dones, done)
		}
		return nil
	}
	// collect deletes the session once deleteAt releases came back (never
	// when deleteAt is past the last) and checks every release against
	// the reference: a prefix of it, then ErrSessionClosed.
	collect := func(s live, deleteAt int) (int, error) {
		got := 0
		for k, done := range s.dones {
			if k == deleteAt {
				_ = srv.DeleteSession(s.id)
			}
			out := <-done
			if out.Err != nil {
				if !errors.Is(out.Err, ErrSessionClosed) {
					return got, fmt.Errorf("%s step %d: %w", s.id, k, out.Err)
				}
				continue
			}
			tag := refs[s.i].tags[k]
			if out.Resp.T != k || k != got || out.Resp.Obs != tag.Obs || math.Float64bits(out.Resp.Alpha) != tag.AlphaBits {
				return got, fmt.Errorf("%s step %d: released T=%d obs %d alpha %v after %d releases; reference obs %d alpha %v",
					s.id, k, out.Resp.T, out.Resp.Obs, out.Resp.Alpha, got, tag.Obs, math.Float64frombits(tag.AlphaBits))
			}
			got++
		}
		return got, nil
	}
	checkExport := func(s live, got int) error {
		exp, err := srv.ExportSession(bg, s.id)
		if err != nil {
			return fmt.Errorf("%s export: %w", s.id, err)
		}
		if exp.T != got || exp.Fingerprint != refs[s.i].fps[got] {
			return fmt.Errorf("%s export: T=%d fingerprint %#x, reference %#x after %d", s.id, exp.T, exp.Fingerprint, refs[s.i].fps[got], got)
		}
		for k, tag := range exp.Tags {
			if tag != refs[s.i].tags[k] {
				return fmt.Errorf("%s export: tag %d %+v, reference %+v", s.id, k, tag, refs[s.i].tags[k])
			}
		}
		return nil
	}

	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		cutShort       int // sessions closed before their last step came back
		exportsChecked int
	)
	// barriers[k] is the k-th barrier of the run, three per round. A
	// goroutine that failed keeps arriving at them so the others finish.
	barriers := make([]sync.WaitGroup, 3*rounds)
	for k := range barriers {
		barriers[k].Add(goroutines)
	}
	arrive := func(k int) {
		barriers[k].Done()
		barriers[k].Wait()
	}
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var failed error
			fail := func(err error) {
				if err != nil && failed == nil {
					failed = err
					errc <- err
				}
			}
			for r := 0; r < rounds; r++ {
				base := (r*goroutines + g) * perRound
				var batch []live
				if failed == nil {
					first, err := create(base)
					if err == nil {
						err = enqueue(&first)
					}
					var got int
					if err == nil {
						got, err = collect(first, steps)
					}
					if err == nil && got != steps {
						err = fmt.Errorf("%s: %d of %d releases with at most %d sessions live", first.id, got, steps, goroutines)
					}
					if err == nil {
						err = checkExport(first, got)
					}
					fail(err)
					if err == nil {
						mu.Lock()
						exportsChecked++
						mu.Unlock()
					}
					batch = append(batch, first)
				}
				arrive(3 * r)
				for p := 1; p < perRound && failed == nil; p++ {
					s, err := create(base + p)
					if err == nil && p == 1 {
						err = enqueue(&s)
					}
					fail(err)
					batch = append(batch, s)
				}
				arrive(3*r + 1)
				for p, s := range batch {
					if failed != nil {
						break
					}
					if p == 0 {
						_ = srv.DeleteSession(s.id) // evicted or not
						continue
					}
					// The session created second has had its steps queued
					// since phase 2 and is deleted after a few releases;
					// the others enqueue theirs now and are deleted at
					// once, with all of them queued or in flight.
					deleteAt := 0
					if p == 1 {
						deleteAt = min(1+s.i%4, len(s.dones))
					} else if err := enqueue(&s); err != nil {
						fail(err)
						break
					}
					got, err := collect(s, deleteAt)
					fail(err)
					if got < steps {
						mu.Lock()
						cutShort++
						mu.Unlock()
					}
				}
				arrive(3*r + 2)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	st := srv.Stats()
	if wantEvicted := int64(rounds * (goroutines*perRound - cfg.MaxSessions)); st.Sessions.Evicted < wantEvicted || cutShort == 0 ||
		exportsChecked != goroutines*rounds || st.Steps.RebuiltCommits == 0 {
		t.Fatalf("the run did not exercise recycling: %d evicted (want ≥ %d), %d cut short, %d exports checked, %d commits rebuilt",
			st.Sessions.Evicted, wantEvicted, cutShort, exportsChecked, st.Steps.RebuiltCommits)
	}
	t.Logf("%d sessions: %d evicted, %d cut short, %d exports checked", n, st.Sessions.Evicted, cutShort, exportsChecked)
}
