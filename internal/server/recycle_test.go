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
// several goroutines. Every release that comes back, and every surviving
// session's exported tags and fingerprint, must equal a reference run of
// the same seed and trajectory on a framework of its own, whose view is
// never released. Run under -race at several widths.
func TestViewRecyclingUnderRaces(t *testing.T) {
	const (
		goroutines = 4
		perRound   = 3 // sessions a goroutine keeps live at once
		rounds     = 4
		steps      = 10
	)
	cfg := testConfig()
	cfg.MaxSessions = 2 * goroutines // < goroutines·perRound: creates evict
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

	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		cutShort       int // sessions closed before their last step came back
		exportsChecked int
	)
	errc := make(chan error, n)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				type live struct {
					i     int
					id    string
					dones []<-chan api.StepOutcome
				}
				var batch []live
				for p := 0; p < perRound; p++ {
					i := (r*goroutines+g)*perRound + p
					s := live{i: i, id: fmt.Sprintf("recycle-%d", i)}
					seed := int64(i + 1)
					if _, err := srv.CreateSession(api.CreateSessionRequest{ID: s.id, Seed: &seed}); err != nil {
						errc <- fmt.Errorf("create %s: %w", s.id, err)
						return
					}
					for k := 0; k < steps; k++ {
						done, err := srv.StepAsync(bg, s.id, traj(i, k))
						if err != nil {
							// Evicted by another goroutine's create.
							if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrSessionClosed) {
								errc <- fmt.Errorf("%s enqueue %d: %w", s.id, k, err)
								return
							}
							break
						}
						s.dones = append(s.dones, done)
					}
					batch = append(batch, s)
				}
				for _, s := range batch {
					// Mode 0 waits for every step and checks the export;
					// 1 deletes after a few steps came back, with the rest
					// queued and one in flight; 2 deletes at once.
					mode := s.i % 3
					wait := map[int]int{0: len(s.dones), 1: min(1+s.i%4, len(s.dones)), 2: 0}[mode]
					got := 0
					for k, done := range s.dones {
						if k == wait {
							_ = srv.DeleteSession(s.id)
						}
						out := <-done
						if out.Err != nil {
							if !errors.Is(out.Err, ErrSessionClosed) {
								errc <- fmt.Errorf("%s step %d: %w", s.id, k, out.Err)
								return
							}
							continue
						}
						tag := refs[s.i].tags[k]
						if out.Resp.T != k || k != got || out.Resp.Obs != tag.Obs || math.Float64bits(out.Resp.Alpha) != tag.AlphaBits {
							errc <- fmt.Errorf("%s step %d: released T=%d obs %d alpha %v after %d releases; reference obs %d alpha %v",
								s.id, k, out.Resp.T, out.Resp.Obs, out.Resp.Alpha, got, tag.Obs, math.Float64frombits(tag.AlphaBits))
							return
						}
						got++
					}
					if mode == 0 {
						exp, err := srv.ExportSession(bg, s.id)
						switch {
						case errors.Is(err, ErrNotFound), errors.Is(err, ErrSessionClosed): // evicted
						case err != nil:
							errc <- fmt.Errorf("%s export: %w", s.id, err)
							return
						default:
							if exp.T != got || exp.Fingerprint != refs[s.i].fps[got] {
								errc <- fmt.Errorf("%s export: T=%d fingerprint %#x, reference %#x after %d", s.id, exp.T, exp.Fingerprint, refs[s.i].fps[got], got)
								return
							}
							for k, tag := range exp.Tags {
								if tag.AlphaBits != refs[s.i].tags[k].AlphaBits || tag.Obs != refs[s.i].tags[k].Obs {
									errc <- fmt.Errorf("%s export: tag %d %+v, reference %+v", s.id, k, tag, refs[s.i].tags[k])
									return
								}
							}
							mu.Lock()
							exportsChecked++
							mu.Unlock()
						}
						_ = srv.DeleteSession(s.id)
					}
					if got < steps {
						mu.Lock()
						cutShort++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Sessions.Evicted == 0 || cutShort == 0 || exportsChecked == 0 || st.Steps.RebuiltCommits == 0 {
		t.Fatalf("the run did not exercise recycling: %d evicted, %d cut short, %d exports checked, %d commits rebuilt",
			st.Sessions.Evicted, cutShort, exportsChecked, st.Steps.RebuiltCommits)
	}
	t.Logf("%d sessions: %d evicted, %d cut short, %d exports checked", n, st.Sessions.Evicted, cutShort, exportsChecked)
}
