package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"priste/internal/api"
)

// TestShippedDeadlineChangesNoRelease describes the daemon as shipped:
// DefaultConfig() — the 10×10 map with the §IV-C deadline at one second —
// releases what the same daemon with the deadline off releases, tag for tag
// and fingerprint for fingerprint, and no candidate is ever rejected for
// want of time. Every other equivalence test turns the deadline off first;
// this one is why a release does not depend on the machine: the only
// machine-dependent limit left in a release check is a clock the scan
// outruns by four orders of magnitude.
func TestShippedDeadlineChangesNoRelease(t *testing.T) {
	const sessions, steps = 32, 12
	unlimited := DefaultConfig()
	unlimited.QPTimeout = 0
	var exports [2][]api.SessionExport
	for k, cfg := range []Config{DefaultConfig(), unlimited} {
		srv := newTestServer(t, cfg)
		m := cfg.GridW * cfg.GridH
		for s := 0; s < sessions; s++ {
			id, seed := fmt.Sprintf("u%d", s), int64(9000+s)
			if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
				t.Fatal(err)
			}
			traj := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				res, err := srv.Step(bg, id, traj.Intn(m))
				if err != nil {
					t.Fatalf("QPTimeout %v, session %d step %d: %v", cfg.QPTimeout, s, i, err)
				}
				if res.ConservativeRejections != 0 {
					t.Fatalf("QPTimeout %v, session %d step %d: %d conservative rejections", cfg.QPTimeout, s, i, res.ConservativeRejections)
				}
			}
			exp, err := srv.ExportSession(bg, id)
			if err != nil {
				t.Fatal(err)
			}
			exports[k] = append(exports[k], exp)
		}
	}
	for s := range exports[0] {
		shipped, off := exports[0][s], exports[1][s]
		if shipped.T != steps || !reflect.DeepEqual(shipped.Tags, off.Tags) || shipped.Fingerprint != off.Fingerprint {
			t.Fatalf("session %d: deadline 1s exported %v (%#x), no deadline %v (%#x)",
				s, shipped.Tags, shipped.Fingerprint, off.Tags, off.Fingerprint)
		}
	}
}
