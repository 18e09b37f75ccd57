package core

import (
	"sync"

	"repro/internal/storage"
)

// pinStripes is the lock-stripe count of the pin table. Pins are taken
// and released by chunk-write workers — with several tenants saving
// concurrently, by several managers' workers at once — so the table is
// striped by the same leading-address-byte rule as the sharded chunk
// store rather than guarded by one mutex.
const pinStripes = 32

// pinTable is a refcounted set of chunk addresses belonging to in-flight
// saves (concurrent saves may pin shared content more than once). Chunks
// are durable before the manifest that references them, so without the
// pin table a concurrent orphan-chunk GC would see a mid-flight save's
// chunks as garbage and delete them out from under the manifest about to
// commit.
type pinTable struct {
	stripes [pinStripes]pinStripe
}

type pinStripe struct {
	mu   sync.Mutex
	refs map[string]int
}

// stripe routes addr to its lock stripe by storage.ShardIndex — the one
// striping rule the chunk store's shards also use — so two workers
// contend only when their chunks share a leading byte modulo the stripe
// count, and a chunk's pin stripe and store shard stay aligned.
func (t *pinTable) stripe(addr string) *pinStripe {
	return &t.stripes[storage.ShardIndex(addr, pinStripes)]
}

// pin marks addr as belonging to an in-flight save.
func (t *pinTable) pin(addr string) {
	s := t.stripe(addr)
	s.mu.Lock()
	if s.refs == nil {
		s.refs = make(map[string]int)
	}
	s.refs[addr]++
	s.mu.Unlock()
}

// unpin releases one reference to addr.
func (t *pinTable) unpin(addr string) {
	s := t.stripe(addr)
	s.mu.Lock()
	if s.refs[addr] > 1 {
		s.refs[addr]--
	} else {
		delete(s.refs, addr)
	}
	s.mu.Unlock()
}

// pinned reports whether addr is pinned right now — the sweep's
// delete-time check, which catches pins taken after the keep-set
// snapshot (a save dedup-hitting an old orphan while a collection is in
// progress).
func (t *pinTable) pinned(addr string) bool {
	s := t.stripe(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[addr] > 0
}

// snapshot returns the currently pinned addresses for GC exclusion.
func (t *pinTable) snapshot() map[string]bool {
	out := make(map[string]bool)
	t.addTo(out)
	return out
}

// addTo adds every currently pinned address to keep.
func (t *pinTable) addTo(keep map[string]bool) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for a := range s.refs {
			keep[a] = true
		}
		s.mu.Unlock()
	}
}

// A PinSource contributes external pins to orphan collection: chunk
// addresses that must survive a sweep even though no committed manifest
// references them yet and no local save holds them in the pin table. The
// network server registers its upload-lease table as a PinSource so a
// remote client's chunks — durable on the server before the manifest that
// will reference them commits, exactly like a local save's, but pinned by
// a process the server cannot see into — are shielded until the lease
// expires. Implementations must be safe for concurrent use.
type PinSource interface {
	// Pinned reports whether addr is currently pinned — the sweep's
	// delete-time check.
	Pinned(addr string) bool
	// AddTo adds every currently pinned address to keep — the keep-set
	// snapshot taken before the sweep.
	AddTo(keep map[string]bool)
}

// sharedChunks is the chunk machinery a Manager writes through: the
// content-addressed store, the pin table shielding in-flight saves from
// GC, the gate ordering pin release against collections, and the scanner
// producing the keep-set of every manifest namespace that references the
// store. A standalone Manager owns a private instance whose scanner reads
// its own backend; a Service hands every job's Manager the same instance,
// whose scanner unions every job's manifests — that sharing is precisely
// what makes cross-job dedup safe: a chunk is live while ANY job's
// manifests or in-flight saves reference it (DESIGN.md §10).
type sharedChunks struct {
	store *storage.ChunkStore
	pins  pinTable

	// gcGate closes the last hole pins alone cannot: a manifest that
	// commits after GC scanned manifests but whose pins release before GC
	// sweeps would dangle. Saves release their pins under the read side
	// (after the manifest commit); collectOrphans holds the write side
	// across manifest scan + sweep, so a release lands either before the
	// scan (the manifest is in the keep-set) or after the sweep (the pins
	// were live at every delete-time check).
	gcGate sync.RWMutex

	// refs produces the keep-set: every chunk address referenced by a
	// committed manifest in any namespace sharing this store. Called with
	// gcGate held for writing.
	refs func() (map[string]bool, error)

	// collecting serializes whole collections. The keep-set scan reads
	// every namespace's manifests under the gcGate write side, which
	// stalls every tenant's pin release — with N jobs whose retention GCs
	// all trigger collections, unserialized scans would queue N fleet-wide
	// stalls back to back. Explicit collections wait their turn;
	// retention-triggered ones are best-effort and skip instead (the
	// collection already running, or the next retention event, picks up
	// the garbage).
	collecting sync.Mutex

	// sources are external pin providers (the server's upload-lease
	// table); their pins join the keep-set and the delete-time skip check
	// alongside the local pin table's.
	sourceMu sync.RWMutex
	sources  []PinSource

	// owners maps a chunk address to the tenant whose quota was charged
	// for writing it (the first writer — the same approximation the
	// charge side uses, DESIGN §13) and the charged byte count, so the
	// sweep can hand the bytes back when the chunk is collected. Entries
	// exist only for chunks written while QoS was active in this process;
	// older chunks credit nobody, matching creditQuota's clamp-at-zero
	// rule for pre-QoS history.
	ownerMu sync.Mutex
	owners  map[string]chunkCharge
}

// chunkCharge remembers who paid for a chunk's stored bytes.
type chunkCharge struct {
	qos   *tenantQoS
	bytes int64
}

// recordChunkCharge notes that t was charged n bytes for writing addr.
// No-op without QoS (nil tenant), so unpoliced stores pay nothing.
func (sc *sharedChunks) recordChunkCharge(addr string, t *tenantQoS, n int64) {
	if t == nil || n <= 0 {
		return
	}
	sc.ownerMu.Lock()
	if sc.owners == nil {
		sc.owners = make(map[string]chunkCharge)
	}
	sc.owners[addr] = chunkCharge{qos: t, bytes: n}
	sc.ownerMu.Unlock()
}

// creditSwept hands a collected chunk's bytes back to the tenant charged
// for writing it — the sweep-side half of chunk quota accounting. The
// credit is the charged amount, not the swept size, so charge and credit
// always cancel exactly.
func (sc *sharedChunks) creditSwept(addr string, _ int64) {
	sc.ownerMu.Lock()
	c, ok := sc.owners[addr]
	if ok {
		delete(sc.owners, addr)
	}
	sc.ownerMu.Unlock()
	if ok {
		c.qos.creditQuota(c.bytes)
	}
}

// registerPinSource adds an external pin provider consulted by every
// subsequent collection.
func (sc *sharedChunks) registerPinSource(ps PinSource) {
	sc.sourceMu.Lock()
	sc.sources = append(sc.sources, ps)
	sc.sourceMu.Unlock()
}

// pinnedAnywhere is the sweep's delete-time check: the local pin table or
// any registered source.
func (sc *sharedChunks) pinnedAnywhere(addr string) bool {
	if sc.pins.pinned(addr) {
		return true
	}
	sc.sourceMu.RLock()
	defer sc.sourceMu.RUnlock()
	for _, ps := range sc.sources {
		if ps.Pinned(addr) {
			return true
		}
	}
	return false
}

// ownedSharedChunks builds the single-tenant instance: chunks under
// backend's ChunkPrefix. The keep-set scanner is nevertheless
// tenant-complete (root manifests plus any jobs/ namespaces) — a
// standalone Manager pointed at a multi-tenant store root must never
// treat other tenants' chunks as orphans just because its own manifests
// don't reference them. For the same reason a Manager handed one job's
// view of a multi-tenant store scans the view's base: the view hides the
// other jobs/ namespaces, but their manifests still reference chunks in
// the shared namespace the sweep walks. A plain WithPrefix mount shares
// nothing with its base (its chunks live under the prefix too), so
// SharedBase leaves it scanning itself.
func ownedSharedChunks(backend storage.Backend) *sharedChunks {
	scanRoot := storage.SharedBase(backend)
	return &sharedChunks{
		store: storage.NewChunkStore(storage.WithPrefix(backend, ChunkPrefix)),
		refs:  func() (map[string]bool, error) { return allChunkReferences(scanRoot) },
	}
}

// collectOrphans removes unreferenced chunks from the store while
// honoring the pins of saves still in flight — possibly saves issued by
// other managers sharing the store.
//
// Safety argument, combining the pin protocol with the gcGate: (1) the
// chunk inventory is listed first, so chunks ingested after it are never
// swept; (2) a save pins every chunk before touching the store (write or
// dedup hit alike) and the sweep re-checks live pins immediately before
// each delete, so a pin held across the sweep always protects its chunk;
// (3) pins are released under the gate's read side while the manifest
// scan + sweep run under the write side, so a release lands either
// before the scan — the committed manifest is then in the keep-set — or
// after the sweep, where (2) already protected the chunk. Together: no
// chunk a committing save references is ever swept, including old orphan
// chunks revived by a dedup hit mid-collection (if the sweep deleted the
// chunk before the save's Stat, the dedup check misses and the save
// rewrites the chunk instead). Every term of the argument is per-store,
// not per-manager, so it holds unchanged when several jobs share the
// instance.
func (sc *sharedChunks) collectOrphans() (removed int, reclaimed int64, err error) {
	sc.collecting.Lock()
	defer sc.collecting.Unlock()
	return sc.collectLocked()
}

// collectOrphansIfIdle is the retention-GC entry point: best-effort,
// skipping when another collection is already in flight.
func (sc *sharedChunks) collectOrphansIfIdle() {
	if !sc.collecting.TryLock() {
		return
	}
	defer sc.collecting.Unlock()
	sc.collectLocked()
}

func (sc *sharedChunks) collectLocked() (removed int, reclaimed int64, err error) {
	addrs, err := sc.store.List()
	if err != nil {
		return 0, 0, err
	}
	sc.gcGate.Lock()
	defer sc.gcGate.Unlock()
	keep, err := sc.refs()
	if err != nil {
		return 0, 0, err
	}
	sc.pins.addTo(keep)
	sc.sourceMu.RLock()
	for _, ps := range sc.sources {
		ps.AddTo(keep)
	}
	sc.sourceMu.RUnlock()
	return sc.store.Sweep(addrs, keep, sc.pinnedAnywhere, sc.creditSwept)
}
