package server

import "testing"

// TestStatszCountsFactoredProducts: on the default world (the exact
// Gaussian chain under auto) every commit product runs over the chain's
// Kronecker factors, and /statsz counts them there — not as blocked
// products.
func TestStatszCountsFactoredProducts(t *testing.T) {
	srv := newTestServer(t, testConfig())
	sessions := servedSessions(t)[:1]
	createAll(t, sessions, srv.CreateSession)
	stepRange(t, srv, sessions, 0, 8, nil)
	p := srv.Stats().Plans
	if p.FactoredKernels == 0 || p.BlockedKernels != 0 {
		t.Fatalf("plans %+v: want factored products only", p)
	}
}
