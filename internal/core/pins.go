package core

import (
	"errors"
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
// delete-time check, which catches a save dedup-hitting an unreferenced
// chunk while a sweep is in progress.
func (t *pinTable) pinned(addr string) bool {
	s := t.stripe(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[addr] > 0
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
	// Lapsed returns, once each, the addresses whose pin ran out since the
	// last call, claimed by a commit or not; it may report late.
	Lapsed() []string
}

// sharedChunks is the chunk machinery a Manager writes through: the
// content-addressed store, the pin table shielding in-flight saves from
// GC, the gate ordering pin release against sweeps, and the reference
// index over every manifest namespace of the store. A standalone Manager
// owns a private instance; a Service hands every job's Manager the same
// one — which is what makes cross-job dedup safe: a chunk is live while ANY
// job's manifests or in-flight saves reference it (DESIGN.md §10).
type sharedChunks struct {
	store *storage.ChunkStore
	pins  pinTable

	// root's root and jobs/ namespaces hold every manifest referencing the
	// store. remote marks one with an authoritative collector of its own (a
	// server whose other clients' pins are invisible here): it sweeps.
	root   storage.Backend
	remote bool

	// gcGate closes the hole pins alone cannot: a manifest that commits
	// after a sweep read its addresses' counts but unpins before the sweep
	// deletes would dangle. A save enters its manifest in the index and
	// unpins under the read side; a sweep holds the write side throughout,
	// so a release lands before it — the addresses are counted — or after
	// it, where the pins were live at every delete-time check.
	gcGate sync.RWMutex

	// The reference index: per committed manifest (keyed as root names it)
	// the addresses it lists, and per address how many listings name it.
	// Built on first use by the scan a collection runs, then maintained where
	// references change (setRefs, retire). pending is what a retention pass
	// sweeps instead of the inventory: addresses this process may have left
	// unreferenced — a retired manifest's, a failed save's, a lapsed
	// upload's. Like the pin table, it takes this process for the store's
	// only writer; what another left behind, only collectOrphans finds.
	ixMu      sync.Mutex
	built     bool
	manifests map[string][]string
	count     map[string]int
	pending   map[string]struct{}

	// sources are external pin providers (the server's upload-lease
	// table), consulted by the delete-time check beside the pin table.
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

// newSharedChunks builds the chunk machinery over backend: chunks under
// its ChunkPrefix, references counted from root. A standalone Manager's
// root is storage.SharedBase(backend), which keeps the index
// tenant-complete: handed one job's view of a multi-tenant store it must
// not treat other tenants' chunks as unreferenced — the view hides their
// jobs/ namespaces, but their manifests name chunks where the sweep
// deletes. A plain WithPrefix mount shares nothing with its base (its
// chunks live under the prefix too), so SharedBase leaves it counting itself.
func newSharedChunks(backend, root storage.Backend) *sharedChunks {
	return &sharedChunks{
		store:   storage.NewChunkStore(storage.WithPrefix(backend, ChunkPrefix)),
		root:    root,
		remote:  storage.Caps(root).Orphans != nil,
		pending: make(map[string]struct{}),
		owners:  make(map[string]chunkCharge),
	}
}

// setRefs enters (or replaces) a committed manifest's references: after the
// manifest is durable, before its save unpins, inside one gcGate read
// section. Until the index is built the scan that builds it reads the
// manifest itself. A repeated address counts as often as it is listed.
func (sc *sharedChunks) setRefs(key string, addrs []string) {
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	if !sc.built {
		return
	}
	sc.dropLocked(key)
	if len(addrs) > 0 {
		sc.manifests[key] = append([]string(nil), addrs...)
	}
	for _, a := range addrs {
		sc.count[a]++
	}
}

// dropLocked forgets a manifest; what only it named becomes pending.
func (sc *sharedChunks) dropLocked(key string) {
	for _, a := range sc.manifests[key] {
		if sc.count[a]--; sc.count[a] == 0 {
			delete(sc.count, a)
			sc.pending[a] = struct{}{}
		}
	}
	delete(sc.manifests, key)
}

// unclaimed hands the next retention pass addresses whose pin ended with no
// manifest of the pinner's claiming them: a failed save's, a lapsed upload's.
func (sc *sharedChunks) unclaimed(addrs ...string) {
	sc.ixMu.Lock()
	for _, a := range addrs {
		sc.pending[a] = struct{}{}
	}
	sc.ixMu.Unlock()
}

// buildIndex (re)builds the index from the store. gcGate is held for
// writing: no save is between its manifest commit and its pin release, so a
// manifest the scan misses still has its pins.
func (sc *sharedChunks) buildIndex() error {
	manifests, err := allManifestReferences(sc.root)
	if err != nil {
		return err
	}
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	sc.built, sc.manifests, sc.count = true, manifests, make(map[string]int)
	for _, addrs := range manifests {
		for _, a := range addrs {
			sc.count[a]++
		}
	}
	return nil
}

// live is every sweep's delete-time check: pinned by a save or a lease, or
// named by a committed manifest. A pinned address is not looked at again
// until its pinner gives it up (unclaimed, Lapsed) or a manifest naming it
// is retired.
func (sc *sharedChunks) live(addr string) bool {
	if sc.pinnedAnywhere(addr) {
		return true
	}
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	return sc.count[addr] > 0
}

// retire is a retention pass: it deletes the manifests refs (b's keys;
// ns+key is root's) newest first, then the chunks only they named — the
// pending addresses, not the inventory. gone lists the refs it deleted; a
// failed delete (err is the last) leaves its manifest counted unless someone
// else deleted it first, and a failed index build deletes nothing, since a
// manifest deleted with its references unknown strands them.
//
// Safety (DESIGN.md §10): a save pins every chunk before touching the
// store and the sweep re-checks pins before each delete, so a pin held
// across the sweep protects its chunk — also an unreferenced one revived by
// a dedup hit mid-sweep; and by gcGate a pin release lands before the sweep,
// its manifest counted, or after it. A crash between a manifest delete and
// its sweep leaves chunks nobody remembers: collectOrphans reclaims those.
func (sc *sharedChunks) retire(b storage.Backend, ns string, refs []snapshotRef) (gone []snapshotRef, swept int, err error) {
	if !sc.remote {
		sc.gcGate.Lock()
		defer sc.gcGate.Unlock()
		if !sc.built {
			if err := sc.buildIndex(); err != nil {
				return nil, 0, err
			}
		}
	}
	for i := len(refs) - 1; i >= 0; i-- {
		derr := b.Delete(refs[i].key)
		if derr == nil {
			gone = append(gone, refs[i])
		} else {
			err = derr
		}
		if derr == nil || errors.Is(derr, storage.ErrNotFound) {
			sc.ixMu.Lock()
			sc.dropLocked(ns + refs[i].key) // nothing to drop while unbuilt
			sc.ixMu.Unlock()
		}
	}
	if sc.remote {
		return gone, 0, err
	}
	cands := sc.takePending()
	swept, _, serr := sc.store.Sweep(cands, sc.live, sc.creditSwept)
	if serr != nil {
		sc.unclaimed(cands...) // best-effort: the next pass retries
	}
	return gone, swept, err
}

// takePending empties pending, lapsed external pins included, into a list.
func (sc *sharedChunks) takePending() []string {
	sc.sourceMu.RLock()
	for _, ps := range sc.sources {
		sc.unclaimed(ps.Lapsed()...)
	}
	sc.sourceMu.RUnlock()
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	cands := make([]string, 0, len(sc.pending))
	for a := range sc.pending {
		cands = append(cands, a)
	}
	clear(sc.pending)
	return cands
}

// collectOrphans is the inventory-wide collection behind the explicit entry
// points: it removes every unreferenced chunk, whoever left it, honoring the
// pins of saves in flight on any manager sharing the store. The inventory is
// listed first, so chunks ingested after it are never swept; the index is
// rebuilt, which also repairs what a foreign writer did behind it.
func (sc *sharedChunks) collectOrphans() (removed int, reclaimed int64, err error) {
	addrs, err := sc.store.List()
	if err != nil {
		return 0, 0, err
	}
	sc.gcGate.Lock()
	defer sc.gcGate.Unlock()
	if err := sc.buildIndex(); err != nil {
		return 0, 0, err
	}
	return sc.store.Sweep(append(addrs, sc.takePending()...), sc.live, sc.creditSwept)
}
