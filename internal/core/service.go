package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// A Service is the multi-tenant checkpoint layer: N concurrent training
// jobs checkpoint into ONE store, each under its own manifest namespace
// (jobs/<id>/ckpt-…) while all of them share a single content-addressed,
// sharded chunk store (chunks/…). Identical chunks written by different
// jobs — replicas of a fine-tuning sweep, ensemble members, restarted
// incarnations — are stored once, and the shared pin table plus reference
// index keep garbage collection correct across tenants: a chunk is live
// while ANY job's manifests or in-flight saves reference it (catalog.go
// has the key shapes).
//
// Each job is driven by its own Manager (one trainer goroutine per job,
// as always); the Service only wires them onto the shared machinery and
// offers the service-wide operations (job discovery, cross-job GC).
// OpenJob, Jobs, CollectOrphans and Close are safe to call concurrently.
type Service struct {
	backend storage.Backend
	shared  *sharedChunks
	qos     *qosTable

	mu     sync.Mutex
	open   map[string]*Manager
	closed bool
}

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Dir roots the service at a local filesystem directory (created if
	// missing). Required when Backend is nil.
	Dir string
	// Backend overrides where the service persists; any storage.Backend
	// works, including a storage.Tiered hierarchy.
	Backend storage.Backend
	// Placement maps write classes to tier levels of the service backend
	// (which must then be a *storage.Tiered). Zero value: every write
	// lands on the hot level, as before.
	Placement storage.PlacementPolicy
	// QoS sets per-tenant byte quotas and write-rate limits. Zero value:
	// no limits. Each job opened on the service is one tenant; the
	// network server maps its tenant header onto the same table.
	QoS QoSConfig
}

// JobPrefix is the key namespace holding per-job snapshot manifests.
const JobPrefix = "jobs"

// NewService opens (or creates) a multi-tenant checkpoint store.
func NewService(opt ServiceOptions) (*Service, error) {
	backend := opt.Backend
	if backend == nil {
		if opt.Dir == "" {
			return nil, errors.New("core: service directory required")
		}
		var err error
		backend, err = storage.NewLocal(opt.Dir)
		if err != nil {
			return nil, fmt.Errorf("core: create service dir: %w", err)
		}
	}
	if opt.Placement != (storage.PlacementPolicy{}) {
		tb, ok := backend.(*storage.Tiered)
		if !ok {
			return nil, errors.New("core: Placement requires a tiered service backend")
		}
		if err := tb.SetPlacement(opt.Placement); err != nil {
			return nil, err
		}
	}
	return &Service{
		backend: backend, shared: newSharedChunks(backend, backend),
		open: make(map[string]*Manager), qos: newQoSTable(opt.QoS),
	}, nil
}

// validateJobID accepts job IDs that form exactly one key segment — no
// separators that would let one job's namespace alias another's or escape
// jobs/ entirely.
func validateJobID(id string) error {
	if id == "" {
		return errors.New("core: empty job ID")
	}
	if strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("core: job ID %q must not contain path separators", id)
	}
	if err := storage.ValidateKey(JobPrefix + "/" + id); err != nil {
		return fmt.Errorf("core: invalid job ID %q: %w", id, err)
	}
	return nil
}

// jobKeyPrefix is the manifest namespace of one job.
func jobKeyPrefix(id string) string { return JobPrefix + "/" + id }

// OpenJob opens (or creates) the job's namespace and returns its Manager,
// wired onto the service's shared chunk store and pin table. The returned
// Manager behaves exactly like a standalone one — strategies, chunking,
// async pipeline, retention — except that chunked saves dedup against
// every tenant's chunks and GC honors every tenant's references.
//
// opt.Backend, opt.Dir and opt.Lifecycle must be unset: where
// the data lives (and how it migrates) is decided by the service, not per
// job. A job can be open at most once per Service at a time — two live
// managers on one namespace would race the snapshot sequence — but may be
// reopened after its Manager is closed.
func (s *Service) OpenJob(jobID string, opt Options) (*Manager, error) {
	view, err := JobBackend(s.backend, jobID)
	if err != nil {
		return nil, err
	}
	if opt.Backend != nil || opt.Dir != "" {
		return nil, errors.New("core: job Options must not set Backend or Dir (the service owns placement)")
	}
	if opt.Lifecycle.enabled() {
		return nil, errors.New("core: per-job Lifecycle is not supported; tier the service backend instead")
	}
	if opt.Retain < 0 {
		return nil, fmt.Errorf("core: negative retention %d", opt.Retain)
	}
	if err := validateChunking(opt); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("core: service closed")
	}
	if prev, ok := s.open[jobID]; ok && !prev.isClosed() {
		return nil, fmt.Errorf("core: job %q already open", jobID)
	}
	m, err := newManager(opt.withDefaults(), view, s.shared)
	if err != nil {
		return nil, err
	}
	// The job is its own tenant: saves check its quota and pay its rate
	// debt in its own save path. Wired before the manager is handed out,
	// so every save it ever runs is accounted.
	m.qos = s.qos.tenant(jobID)
	s.open[jobID] = m
	return m, nil
}

// Jobs lists the job IDs present in the store — every namespace holding
// at least one object, whether or not it is open in this process.
func (s *Service) Jobs() ([]string, error) { return jobIDs(s.backend) }

// jobIDs discovers the job namespaces present in a backend.
func jobIDs(b storage.Backend) ([]string, error) {
	keys, err := b.List(JobPrefix + "/")
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var ids []string
	for _, k := range keys {
		rest := strings.TrimPrefix(k, JobPrefix+"/")
		id, _, ok := strings.Cut(rest, "/")
		if !ok || id == "" || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// JobView returns one job's slice of the store as a self-contained
// checkpoint backend, the one its Manager writes through: snapshot keys
// resolve under jobs/<id>/, chunk-namespace keys pass through to the store
// root where every tenant's chunks live. Every core read path treats it
// like a private store, so a job can be inspected or restored without
// opening a Manager.
func (s *Service) JobView(jobID string) (storage.Backend, error) {
	return JobBackend(s.backend, jobID)
}

// JobBackend is JobView for callers holding only the store's backend —
// inspection tools scoping a command to one tenant of a multi-tenant
// directory without constructing a Service.
func JobBackend(base storage.Backend, jobID string) (storage.Backend, error) {
	if err := validateJobID(jobID); err != nil {
		return nil, err
	}
	return storage.WithSharedPrefix(base, jobKeyPrefix(jobID), ChunkPrefix), nil
}

// Backend returns the backend the service persists to.
func (s *Service) Backend() storage.Backend { return s.backend }

// ChunkStore returns the shared sharded chunk store.
func (s *Service) ChunkStore() *storage.ChunkStore { return s.shared.store }

// CollectOrphans removes chunks no tenant references, whoever left them:
// the index is rebuilt from every job's manifests (open or not) plus the
// root namespace's, and in-flight saves of every open job are shielded by
// the shared pin table. Safe to run concurrently with saves on any job.
func (s *Service) CollectOrphans() (removed int, reclaimed int64, err error) {
	return s.shared.collectOrphans()
}

// isManifestKey reports whether key names a snapshot object of the root
// namespace or of a job's: the keys the reference index is built from.
func isManifestKey(key string) bool {
	if rest, ok := strings.CutPrefix(key, JobPrefix+"/"); ok {
		_, key, _ = strings.Cut(rest, "/")
	}
	_, _, ok := parseSnapshotName(key)
	return ok
}

// CommitObject writes one object for a client that is not a job of this
// process (the network server's). A snapshot object also enters the
// reference index, once there is one, in the gcGate read section a local
// save uses; its chunks' upload leases outlast the commit.
func (s *Service) CommitObject(key string, data []byte, class storage.WriteClass) error {
	if err := storage.PutClass(s.backend, key, data, class); err != nil || !isManifestKey(key) {
		return err
	}
	s.shared.gcGate.RLock()
	defer s.shared.gcGate.RUnlock()
	if s.shared.built {
		_, _, info, _ := decodeManifestObject(data) // undecodable: references nothing
		s.shared.setRefs(key, info.addrs)
	}
	return nil
}

// DeleteObject deletes one object for such a client. Deleting a snapshot
// object is a retention pass of one: swept counts the chunks that went.
func (s *Service) DeleteObject(key string) (swept int, err error) {
	if !isManifestKey(key) {
		return 0, s.backend.Delete(key)
	}
	_, swept, err = s.shared.retire(s.backend, "", []snapshotRef{{key: key}})
	return swept, err
}

// RegisterPinSource adds an external pin provider to orphan collection:
// every address it reports pinned survives every sweep. The network
// server registers its upload-lease table here so
// remote clients' uploaded-but-uncommitted chunks are shielded exactly
// like local in-flight saves' pins.
func (s *Service) RegisterPinSource(ps PinSource) {
	s.shared.sourceMu.Lock()
	s.shared.sources = append(s.shared.sources, ps)
	s.shared.sourceMu.Unlock()
}

// QoSAdmit is the network server's admission check: would tenant's next
// n bytes exceed its quota or rate? Non-blocking — on refusal it returns
// a suggested retry delay and the limiting dimension ("quota" or
// "rate"), which the server converts into 429 + Retry-After. Always
// admits when QoS is disabled.
func (s *Service) QoSAdmit(tenant string, n int64) (retryAfter time.Duration, reason string, ok bool) {
	if s.qos == nil {
		return 0, "", true
	}
	return s.qos.tenant(tenant).admitOrRetry(n)
}

// QoSCharge bills n stored bytes to tenant's quota — the server calls it
// after an ingest actually lands (dedup hits are free).
func (s *Service) QoSCharge(tenant string, n int64) {
	if s.qos == nil || n <= 0 {
		return
	}
	s.qos.tenant(tenant).chargeQuota(n)
}

// QoSChargeChunk is QoSCharge for a chunk of the shared store: besides
// billing the bytes, it records tenant as the chunk's owner so a later
// orphan sweep credits them back (the server calls it for canonical
// chunk ingests that actually wrote).
func (s *Service) QoSChargeChunk(tenant, addr string, n int64) {
	if s.qos == nil || n <= 0 {
		return
	}
	t := s.qos.tenant(tenant)
	t.chargeQuota(n)
	s.shared.recordChunkCharge(addr, t, n)
}

// QoSCredit hands n bytes back to tenant's quota — the server calls it
// when a remote tenant's retention GC deletes an object through the
// DELETE endpoint, so server-side quotas clear as history ages out just
// like local ones.
func (s *Service) QoSCredit(tenant string, n int64) {
	if s.qos == nil || n <= 0 {
		return
	}
	s.qos.tenant(tenant).creditQuota(n)
}

// QoSUsage snapshots every known tenant's QoS counters; nil when QoS is
// disabled.
func (s *Service) QoSUsage() map[string]TenantUsage { return s.qos.usage() }

// Close closes every open job's Manager (flushing their async pipelines)
// and refuses further OpenJob calls. It returns the first close error.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	managers := make([]*Manager, 0, len(s.open))
	for _, m := range s.open {
		managers = append(managers, m)
	}
	s.mu.Unlock()
	var first error
	for _, m := range managers {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
