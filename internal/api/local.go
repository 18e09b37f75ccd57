package api

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Local implements Service directly over a core.Service: the in-process
// end of the wire. Its lease table is registered as a PinSource with the
// service, so explicit CollectOrphans calls and every retention pass — a
// server-side job's, or a client's manifest delete — honor remote uploads
// still in flight.
type Local struct {
	svc     *core.Service
	backend storage.Backend
	leases  *Leases

	// origin is the single-flight coalescing read cache wrapped around
	// the backend when LocalOptions.CacheBytes > 0 (l.backend then IS the
	// coalescer, so every read path coalesces); nil when disabled. Every
	// write goes beneath it, through the service, and evicts (evict).
	origin *storage.Coalescer

	hasQueries     atomic.Int64
	hasHits        atomic.Int64
	chunksIngested atomic.Int64
	chunkDedup     atomic.Int64
	chunkOffered   atomic.Int64
	chunkWritten   atomic.Int64
	manifests      atomic.Int64
	manifestBytes  atomic.Int64
	bytesServed    atomic.Int64
}

// LocalOptions tunes a Local beyond the defaults.
type LocalOptions struct {
	// CacheBytes bounds the single-flight origin read cache wrapped
	// around the service backend. With it, N restorers gang-reading one
	// snapshot chain cost the backend each object roughly once instead of
	// N times. <= 0 disables the cache (reads pass straight through).
	CacheBytes int64
}

// NewLocalOptions wraps svc as a transport-agnostic Service whose upload
// leases shield in-flight remote saves from the service's GC. A nil leases
// is a fresh table at DefaultLeaseTTL; the zero opts read straight through.
func NewLocalOptions(svc *core.Service, leases *Leases, opts LocalOptions) *Local {
	if leases == nil {
		leases = NewLeases(0)
	}
	l := &Local{svc: svc, backend: svc.Backend(), leases: leases}
	if opts.CacheBytes > 0 {
		l.origin = storage.NewCoalescer(l.backend, opts.CacheBytes)
		l.backend = l.origin
	}
	svc.RegisterPinSource(leases)
	return l
}

// Leases exposes the lease table (tests drive its clock).
func (l *Local) Leases() *Leases { return l.leases }

// Caps implements Service: what the store really supports rather than a
// hardcoded protocol claim. The read fields probe the read path (the
// origin cache, when there is one); the guarantees, the write fields and
// a replicated store's quorum geometry probe the store writes reach.
func (l *Local) Caps() Caps {
	store := l.svc.Backend()
	c := store.Capabilities()
	read, write := storage.Caps(l.backend), storage.Caps(store)
	caps := Caps{
		Name:            l.backend.Name(),
		Atomic:          c.Atomic,
		Persistent:      c.Persistent,
		Modeled:         c.Modeled,
		Batch:           read.Batch != nil,
		Range:           read.Range != nil,
		ClassedWrites:   write.ClassWrite != nil,
		AddressedIngest: write.Ingest != nil,
		OrphanCollect:   write.Orphans != nil,
	}
	if rep := write.Replication; rep.Replicas > 0 {
		caps.Replicas = rep.Replicas
		caps.WriteQuorum = rep.WriteQuorum
		caps.ReadQuorum = rep.ReadQuorum
		caps.Domains = append([]string(nil), rep.Domains...)
	}
	return caps
}

// CommitManifest implements Service.
func (l *Local) CommitManifest(key string, data []byte) error {
	return l.CommitManifestClass(key, data, storage.ClassDefault)
}

// CommitManifestClass implements ClassedService: the commit carries the
// client's write class down to the store, so a remote job's manifests
// land where the service's placement policy says manifests go.
func (l *Local) CommitManifestClass(key string, data []byte, class storage.WriteClass) error {
	if err := storage.ValidateKey(key); err != nil {
		return err
	}
	err := l.svc.CommitObject(key, data, class)
	l.evict(key, false)
	if err != nil {
		return err
	}
	l.manifests.Add(1)
	l.manifestBytes.Add(int64(len(data)))
	return nil
}

// GetObject implements Service.
func (l *Local) GetObject(key string) ([]byte, error) {
	data, err := l.backend.Get(key)
	if err == nil {
		l.bytesServed.Add(int64(len(data)))
	}
	return data, err
}

// GetObjectRange implements Service.
func (l *Local) GetObjectRange(key string, off, n int64) ([]byte, error) {
	data, err := storage.GetRange(l.backend, key, off, n)
	if err == nil {
		l.bytesServed.Add(int64(len(data)))
	}
	return data, err
}

// GetObjects implements Service.
func (l *Local) GetObjects(keys []string) ([][]byte, []error) {
	out, errs := storage.GetBatch(l.backend, keys)
	var served int64
	for i := range out {
		if errs[i] == nil {
			served += int64(len(out[i]))
		}
	}
	l.bytesServed.Add(served)
	return out, errs
}

// StatObject implements Service.
func (l *Local) StatObject(key string) (storage.ObjectInfo, error) {
	return l.backend.Stat(key)
}

// ListObjects implements Service.
func (l *Local) ListObjects(prefix string) ([]string, error) {
	return l.backend.List(prefix)
}

// DeleteObject implements Service. Deleting a snapshot object sweeps the
// chunks only it referenced, so the whole cache goes when chunks went.
func (l *Local) DeleteObject(key string) error {
	swept, err := l.svc.DeleteObject(key)
	l.evict(key, swept > 0)
	return err
}

// evict is the one rule for a write beneath the origin cache: after it,
// failed or not (a failed quorum write may have landed on a replica), key's
// cached copy goes, or every copy when all is set (a sweep deleted chunks).
func (l *Local) evict(key string, all bool) {
	if l.origin != nil && all {
		l.origin.InvalidateAll()
	} else if l.origin != nil {
		l.origin.Invalidate(key)
	}
}

// HasAddresses implements Service. The lease is taken before the
// existence check, mirroring the local pin-before-Stat protocol: once the
// server has answered "have it", the client will reference the chunk in
// a manifest without uploading, so the chunk must already be protected
// when the answer leaves.
func (l *Local) HasAddresses(keys []string) ([]bool, error) {
	have := make([]bool, len(keys))
	for i, key := range keys {
		addr, ok := CanonicalChunkAddr(key)
		if !ok {
			return nil, fmt.Errorf("api: %q is not a chunk key", key)
		}
		l.leases.Touch(addr)
		l.hasQueries.Add(1)
		if have[i] = l.svc.ChunkStore().Has(addr); have[i] {
			l.hasHits.Add(1)
		}
	}
	return have, nil
}

// IngestChunk implements Service.
func (l *Local) IngestChunk(key string, data []byte) (int, error) {
	return l.IngestChunkClass(key, data, storage.ClassDefault)
}

// IngestChunkClass implements ClassedService: hash-verify, lease, then
// the service chunk store's one dedup protocol, the write class threaded
// through to its placement.
func (l *Local) IngestChunkClass(key string, data []byte, class storage.WriteClass) (int, error) {
	addr, ok := CanonicalChunkAddr(key)
	if !ok {
		return 0, fmt.Errorf("api: %q is not a chunk key", key)
	}
	if got := storage.Hash(data); got != addr {
		return 0, fmt.Errorf("api: chunk upload for %s hashes to %s (corrupt or truncated in transit)", addr, got)
	}
	l.leases.Touch(addr)
	l.chunksIngested.Add(1)
	l.chunkOffered.Add(int64(len(data)))
	written, err := l.svc.ChunkStore().Ingest(addr, data, class)
	// A dedup hit wrote nothing and keeps the verified resident's cached copy.
	if written > 0 || err != nil {
		l.evict(key, false)
	}
	if err != nil {
		return 0, err
	}
	if written == 0 {
		l.chunkDedup.Add(1)
	}
	l.chunkWritten.Add(int64(written))
	return written, nil
}

// CanonicalChunkAddr is the chunk plane's one routing rule, shared by the
// service, the server's quota accounting and the remote client: key rides
// the chunk plane iff it addresses the service's shared chunk store
// ("chunks/ab/<addr>"), and addr is the address it embeds. Every other
// key — chunk-shaped or not — is an object commit.
func CanonicalChunkAddr(key string) (addr string, ok bool) {
	addr, ok = storage.ChunkKeyAddr(key)
	// ChunkKeyAddr vouches for the "ab/<addr>" tail; what precedes it must
	// be exactly the chunk mount. Compared in place, not against a built
	// core.ChunkKey(addr): the client asks this once per chunk of a save.
	if !ok || key[:len(key)-len(addr)-len("ab/")] != core.ChunkPrefix+"/" {
		return "", false
	}
	return addr, true
}

// QoSAdmit implements QoSService by delegating to the core service's
// per-tenant table; always admits when the service has no QoS.
func (l *Local) QoSAdmit(tenant string, n int64) (time.Duration, string, bool) {
	return l.svc.QoSAdmit(tenant, n)
}

// QoSCharge implements QoSService.
func (l *Local) QoSCharge(tenant string, n int64) { l.svc.QoSCharge(tenant, n) }

// QoSChargeChunk implements QoSService: the charge plus chunk-owner
// bookkeeping, so the service's orphan sweep credits the tenant back.
func (l *Local) QoSChargeChunk(tenant, addr string, n int64) {
	l.svc.QoSChargeChunk(tenant, addr, n)
}

// QoSCredit implements QoSService.
func (l *Local) QoSCredit(tenant string, n int64) { l.svc.QoSCredit(tenant, n) }

// Jobs implements Service.
func (l *Local) Jobs() ([]string, error) { return l.svc.Jobs() }

// CollectOrphans implements Service: the service-wide collection, which
// honors every tenant's manifests, local pins, and this table's leases.
// A sweep that removed chunks drops the whole origin cache.
func (l *Local) CollectOrphans() (int, int64, error) {
	removed, reclaimed, err := l.svc.CollectOrphans()
	if removed > 0 {
		l.evict("", true)
	}
	return removed, reclaimed, err
}

// Stats implements Service.
func (l *Local) Stats() Stats {
	var origin storage.CoalescerStats
	if l.origin != nil {
		origin = l.origin.Stats()
	}
	var tenants map[string]TenantStats
	if usage := l.svc.QoSUsage(); len(usage) > 0 {
		tenants = make(map[string]TenantStats, len(usage))
		for id, u := range usage {
			tenants[id] = TenantStats{
				QuotaBytes:      u.QuotaBytes,
				RateBytesPerSec: u.RateBytesPerSec,
				ChargedBytes:    u.ChargedBytes,
				Throttled:       u.Throttled,
				ThrottleMs:      u.ThrottleWait.Milliseconds(),
			}
		}
	}
	var levels []LevelStats
	if occap := storage.Caps(l.svc.Backend()).Occupancy; occap != nil {
		if occ, err := occap.Occupancy(); err == nil {
			for _, lv := range occ {
				ls := LevelStats{Name: lv.Name, Objects: lv.Objects, Bytes: lv.Bytes}
				for _, c := range lv.ByClass {
					ls.ByClass = append(ls.ByClass, ClassStats{Class: c.Class, Objects: c.Objects, Bytes: c.Bytes})
				}
				levels = append(levels, ls)
			}
		}
	}
	return Stats{
		Tenants:            tenants,
		Levels:             levels,
		OriginHits:         origin.Hits,
		OriginMisses:       origin.Misses,
		OriginCoalesced:    origin.Coalesced,
		HasQueries:         l.hasQueries.Load(),
		HasHits:            l.hasHits.Load(),
		ChunksIngested:     l.chunksIngested.Load(),
		ChunkDedupHits:     l.chunkDedup.Load(),
		ChunkBytesOffered:  l.chunkOffered.Load(),
		ChunkBytesWritten:  l.chunkWritten.Load(),
		ManifestsCommitted: l.manifests.Load(),
		ManifestBytes:      l.manifestBytes.Load(),
		BytesServed:        l.bytesServed.Load(),
		ActiveLeases:       l.leases.Active(),
	}
}
