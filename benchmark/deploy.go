package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"priste/internal/api"
	"priste/internal/ring"
	"priste/internal/router"
	"priste/internal/rpc"
	"priste/internal/server"
	"priste/internal/store"
)

// maxConns is the number of multiplexed RPC connections the load
// generator spreads its clients over.
const maxConns = 2

// backend is one pristed instance: a durable store, the server over it
// and its RPC listener.
type backend struct {
	name string
	srv  *server.Server
	rpc  *rpc.Server
	addr string
}

// deployment is a whole service built in this process from the public
// constructors: one backend, or three behind the fleet router, and the
// load generator's connections to its edge.
type deployment struct {
	backends []*backend

	// Fleet only: the router, its connections to the backends and its
	// own RPC front-end.
	rt      *router.Router
	rtConns []*rpc.Client
	front   *rpc.Server

	edge  string        // address clients dial
	conns []*rpc.Client // the load generator's connections

	// placement is the router's ring, rebuilt here from the same member
	// names and default point count, to tell which backend an id lands on.
	placement *ring.Ring
}

// openBackend opens (or reopens) the store under dir and builds the
// server over it; server.New rehydrates every journaled session before
// it returns.
func openBackend(spec workloadSpec, name, dir string, fsync bool) (*backend, error) {
	st, err := store.Open(dir, fsync)
	if err != nil {
		return nil, err
	}
	cfg := spec.serverConfig()
	cfg.Store = st
	srv, err := server.New(cfg)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	return &backend{name: name, srv: srv}, nil
}

// serve starts an RPC listener on loopback over svc.
func serve(svc api.Service) (*rpc.Server, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := rpc.NewServer(svc)
	go func() { _ = s.Serve(lis) }() // returns when s.Close closes lis
	return s, lis.Addr().String(), nil
}

func backendDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("backend-%d", i))
}

// deploy builds the workload's service under root, which must be empty
// for a fresh start or hold the stores of an earlier deployment. Every
// gated run journals without fsync (README.md, "Why no gated run
// fsyncs"); the traced run has one phase that turns it on.
func deploy(spec workloadSpec, root string, fsync bool) (*deployment, error) {
	d := &deployment{}
	for i := 0; i < spec.backends(); i++ {
		// Ring placement is a function of the names, so they are fixed.
		b, err := openBackend(spec, fmt.Sprintf("backend-%d", i), backendDir(root, i), fsync)
		if err != nil {
			d.close()
			return nil, err
		}
		d.backends = append(d.backends, b)
		b.rpc, b.addr, err = serve(b.srv)
		if err != nil {
			d.close()
			return nil, err
		}
		// Feed the daemon's per-transport stage breakdown the way
		// cmd/pristed wires it.
		b.rpc.Observe = b.srv.ObserveRPC
		b.rpc.ObserveStep = b.srv.ObserveRPCStep
	}
	d.edge = d.backends[0].addr
	if spec.fleet {
		var cfg router.Config
		var names []string
		cfg.ProbeInterval = -1 // no background probes: nothing fails here, and placement must repeat
		for _, b := range d.backends {
			c, err := rpc.Dial(b.addr)
			if err != nil {
				d.close()
				return nil, err
			}
			d.rtConns = append(d.rtConns, c)
			cfg.Backends = append(cfg.Backends, router.Backend{Name: b.name, Client: c})
			names = append(names, b.name)
		}
		d.placement = ring.New(cfg.VirtualNodes, names...)
		rt, err := router.New(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.rt = rt
		d.front, d.edge, err = serve(rt)
		if err != nil {
			d.close()
			return nil, err
		}
	}
	for i := 0; i < min(maxConns, spec.clients); i++ {
		c, err := rpc.Dial(d.edge)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// owner is the index of the backend session id lives on.
func (d *deployment) owner(id string) int {
	if d.placement == nil {
		return 0
	}
	name, _ := d.placement.Owner(id)
	for i, b := range d.backends {
		if b.name == name {
			return i
		}
	}
	return 0
}

// conn returns the connection client c shares.
func (d *deployment) conn(c int) *rpc.Client { return d.conns[c%len(d.conns)] }

// close stops everything the way a crash would: nothing is deleted,
// drained or snapshotted, so the stores keep exactly what was journaled
// write-ahead.
func (d *deployment) close() {
	for _, c := range d.conns {
		_ = c.Close()
	}
	if d.front != nil {
		_ = d.front.Close()
	}
	if d.rt != nil {
		d.rt.Shutdown()
	}
	for _, c := range d.rtConns {
		_ = c.Close()
	}
	for _, b := range d.backends {
		if b.rpc != nil {
			_ = b.rpc.Close()
		}
		b.srv.Close() // closes the store too
	}
}

// stats returns every backend's counter document.
func (d *deployment) stats() []api.Stats {
	out := make([]api.Stats, len(d.backends))
	for i, b := range d.backends {
		out[i] = b.srv.Stats()
	}
	return out
}

// freshRoot creates an empty directory for one deployment under base.
func freshRoot(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "deploy-")
}
