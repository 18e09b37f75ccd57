package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
)

const replicas = 3

// tiers opens the server-side store over root: an "nvme" Local and an
// "object" level replicated R=3 W=2 over three Local directories. With a
// tracer every leaf and the Replicated get a span wrapper; the Tiered
// itself never does, because core detects it by concrete type.
func tiers(root string, tr *tracer) (*storage.Tiered, *storage.Replicated, error) {
	leaf := func(sub, layer string) (storage.Backend, error) {
		l, err := storage.NewLocal(filepath.Join(root, sub))
		if err != nil || tr == nil {
			return l, err
		}
		return traceBackend(l, tr, layer, nil), nil
	}
	nvme, err := leaf("nvme", siteNVMe)
	if err != nil {
		return nil, nil, err
	}
	members := make([]storage.Replica, replicas)
	for i := range members {
		b, err := leaf(fmt.Sprintf("replica-%d", i), fmt.Sprintf("%s%d", siteReplica, i))
		if err != nil {
			return nil, nil, err
		}
		members[i] = storage.Replica{Backend: b, Domain: fmt.Sprintf("disk-%d", i)}
	}
	rep, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: 2}, members...)
	if err != nil {
		return nil, nil, err
	}
	var object storage.Backend = rep
	if tr != nil {
		object = traceBackend(rep, tr, layerReplicated, nil)
	}
	tiered, err := storage.NewTiered(
		storage.Level{Name: "nvme", Backend: nvme},
		storage.Level{Name: "object", Backend: object},
	)
	return tiered, rep, err
}

// stack is the in-process server: core.Service over the tiers, api.Local
// with an origin cache, the HTTP handler, a loopback listener.
type stack struct {
	tiered *storage.Tiered
	rep    *storage.Replicated
	svc    *core.Service
	local  *api.Local
	srv    *http.Server
	served chan error
	url    string
}

func openStack(root string, cacheBytes int64, tr *tracer) (*stack, error) {
	tiered, rep, err := tiers(root, tr)
	if err != nil {
		return nil, err
	}
	svc, err := core.NewService(core.ServiceOptions{Backend: tiered, Placement: storage.DeltaToWarm("object")})
	if err != nil {
		return nil, err
	}
	local := api.NewLocalOptions(svc, api.NewLeases(0), api.LocalOptions{CacheBytes: cacheBytes})
	var service api.Service = local
	if tr != nil {
		service = traceService(local, tr)
	}
	var handler http.Handler = server.New(service, server.Options{})
	if tr != nil {
		handler = traceHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		tiered: tiered, rep: rep, svc: svc, local: local,
		srv:    &http.Server{Handler: handler},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return, closes the
// service and drains the replicated store's straggler writes.
func (s *stack) close() error {
	s.srv.Close()
	<-s.served
	err := s.svc.Close()
	s.rep.Close()
	return err
}

// client is one tenant's connection: a remote.Client and the job view a
// manager or restore runs on. With a tracer the client gets the span
// RoundTripper and a backend wrapper between it and core.JobBackend.
type client struct {
	c    *remote.Client
	view storage.Backend
}

func dial(url, tenant, job string, tr *tracer, op *atomic.Uint64) (*client, error) {
	opt := remote.Options{Tenant: tenant}
	if tr != nil {
		opt.Transport = traceTransport(tr, op)
	}
	c, err := remote.Dial(url, opt)
	if err != nil {
		return nil, err
	}
	var b storage.Backend = c
	if tr != nil {
		b = traceBackend(c, tr, layerRemote, op)
	}
	view, err := core.JobBackend(b, job)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &client{c: c, view: view}, nil
}

// dirBytes sums the sizes of the regular files under root: the bytes
// resident on every level and replica, which is what space_amp counts.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
