package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
)

// cmdServe runs the networked checkpoint service over a local store
// directory: one core.Service (shared sharded chunk store, per-job
// manifest namespaces) exposed on the qckpt wire protocol, so remote
// trainers (`train -remote URL`) save and restore through it. The
// resolved listen address is printed first — with -addr :0 scripts can
// read the chosen port from stdout.
func cmdServe(dir string) error {
	if jobID != "" {
		return fmt.Errorf("serve is store-wide; drop -job")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	var backend storage.Backend
	switch {
	case replicaCount > 0:
		if levelsFlag != "" {
			return fmt.Errorf("-replicas and -levels are mutually exclusive; replicate the cold level behind its own serve instead")
		}
		rb, err := storage.NewReplicatedDir(dir, replicaCount, writeQuorum)
		if err != nil {
			return err
		}
		defer rb.Close()
		backend = rb
	case levelsFlag != "":
		tb, err := storage.NewTieredDir(dir, strings.Split(levelsFlag, ","))
		if err != nil {
			return err
		}
		backend = tb
	default:
		b, err := storage.NewLocal(dir)
		if err != nil {
			return err
		}
		backend = b
	}
	if writeQuorum != 0 && replicaCount == 0 {
		return fmt.Errorf("-quorum requires -replicas")
	}
	placement, err := parsePlacement(placeSpec)
	if err != nil {
		return err
	}
	if placement != (storage.PlacementPolicy{}) && levelsFlag == "" {
		return fmt.Errorf("-place needs a tiered store; add -levels")
	}
	qos, err := parseQoS(quotaMiB, rateMiB, qosSpec)
	if err != nil {
		return err
	}
	svc, err := core.NewService(core.ServiceOptions{Backend: backend, Placement: placement, QoS: qos})
	if err != nil {
		return err
	}
	defer svc.Close()
	ttl := leaseTTL
	if ttl <= 0 {
		ttl = api.DefaultLeaseTTL
	}
	local := api.NewLocalOptions(svc, api.NewLeases(ttl),
		api.LocalOptions{CacheBytes: int64(cacheMiB) << 20})
	handler := server.New(local, server.Options{MaxInflightPerTenant: maxInflight})

	ln, err := net.Listen("tcp", serveAddr)
	if err != nil {
		return err
	}
	cacheNote := "off"
	if cacheMiB > 0 {
		cacheNote = fmt.Sprintf("%d MiB", cacheMiB)
	}
	qosNote := "off"
	if qos.Default != (core.TenantQoS{}) || len(qos.Tenants) > 0 {
		qosNote = fmt.Sprintf("quota %d MiB, rate %d MiB/s, %d override(s)",
			quotaMiB, rateMiB, len(qos.Tenants))
	}
	fmt.Printf("qckpt serve: listening on http://%s (store %s, lease TTL %v, origin cache %s, QoS %s)\n",
		ln.Addr(), dir, ttl, cacheNote, qosNote)

	httpSrv := newHTTPServer(handler)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("qckpt serve: %v — draining\n", s)
		httpSrv.Close()
		<-errCh
		st := local.Stats()
		fmt.Printf("served %s, ingested %d chunk(s) (%d dedup hit(s), %s offered → %s written), %d manifest commit(s)\n",
			humanBytes(st.BytesServed), st.ChunksIngested, st.ChunkDedupHits,
			humanBytes(st.ChunkBytesOffered), humanBytes(st.ChunkBytesWritten), st.ManifestsCommitted)
		if st.OriginHits+st.OriginMisses+st.OriginCoalesced > 0 {
			fmt.Printf("origin cache: %d hit(s), %d miss(es), %d coalesced read(s)\n",
				st.OriginHits, st.OriginMisses, st.OriginCoalesced)
		}
		return nil
	}
}

// The server-side timeouts of `qckpt serve`. A peer that opens a
// connection and never finishes its request headers is dropped after
// readHeaderTimeout instead of holding a goroutine and a socket forever;
// idleTimeout outlasts remote.Client's 90 s idle-connection timeout, so
// between requests it is the client, not the server, that closes a pooled
// connection. Bodies are deliberately not deadline-bound here: a large
// upload over a slow link is legitimate, and admission bounds how many a
// tenant can hold open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// parsePlacement turns "delta=object,archive=object" into a placement
// policy; level names must match the -levels device names.
func parsePlacement(spec string) (storage.PlacementPolicy, error) {
	var pol storage.PlacementPolicy
	if spec == "" {
		return pol, nil
	}
	for _, part := range strings.Split(spec, ",") {
		class, level, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || level == "" {
			return pol, fmt.Errorf("malformed placement %q (want class=level)", part)
		}
		switch class {
		case "manifest":
			pol.Manifest = level
		case "anchor":
			pol.Anchor = level
		case "delta":
			pol.Delta = level
		case "archive":
			pol.Archive = level
		default:
			return pol, fmt.Errorf("unknown placement class %q (want manifest, anchor, delta or archive)", class)
		}
	}
	return pol, nil
}

// parseQoS builds the service QoS table: -quota/-rate set every tenant's
// default limits, -qos entries override per tenant.
func parseQoS(quotaMiB, rateMiB int, spec string) (core.QoSConfig, error) {
	cfg := core.QoSConfig{Default: core.TenantQoS{
		QuotaBytes:      int64(quotaMiB) << 20,
		RateBytesPerSec: int64(rateMiB) << 20,
	}}
	if spec == "" {
		return cfg, nil
	}
	cfg.Tenants = make(map[string]core.TenantQoS)
	for _, part := range strings.Split(spec, ",") {
		id, lim, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" {
			return cfg, fmt.Errorf("malformed QoS entry %q (want tenant=quotaMiB:rateMiBs)", part)
		}
		qs, rs, ok := strings.Cut(lim, ":")
		if !ok {
			return cfg, fmt.Errorf("malformed QoS limits %q (want quotaMiB:rateMiBs)", lim)
		}
		q, err := strconv.Atoi(qs)
		if err != nil || q < 0 {
			return cfg, fmt.Errorf("bad quota in %q", part)
		}
		r, err := strconv.Atoi(rs)
		if err != nil || r < 0 {
			return cfg, fmt.Errorf("bad rate in %q", part)
		}
		cfg.Tenants[id] = core.TenantQoS{
			QuotaBytes:      int64(q) << 20,
			RateBytesPerSec: int64(r) << 20,
		}
	}
	return cfg, nil
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
