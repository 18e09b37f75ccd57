package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Strategy selects how snapshots are persisted.
type Strategy int

// Strategies.
const (
	// StrategyFull writes a self-contained snapshot every time.
	StrategyFull Strategy = iota
	// StrategyDelta writes XOR-deltas chained off the previous snapshot,
	// with a full anchor every AnchorEvery snapshots.
	StrategyDelta
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyFull:
		return "full"
	case StrategyDelta:
		return "delta"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures a Manager.
type Options struct {
	// Backend is where snapshots are persisted (required). Any
	// storage.Backend works: storage.NewLocal (or DirBackend, which will not
	// create the directory) for a checkpoint directory, storage.NewMem for
	// tests and benchmarks, storage.NewTier to project writes onto a modeled
	// storage tier, or a remote store.
	Backend storage.Backend
	// Strategy selects full or delta-chained snapshots.
	Strategy Strategy
	// AnchorEvery bounds delta chains: a full anchor is written every
	// AnchorEvery snapshots (default 16; ignored for StrategyFull).
	AnchorEvery int
	// Async moves compression and I/O to a background pipeline; Save
	// returns after the in-memory state capture. Errors surface on the next
	// Save or on Barrier/Close.
	Async bool
	// Workers sizes the chunk-write worker pool (default 1): with
	// ChunkBytes set, a snapshot's chunks are compressed and written
	// concurrently by Workers goroutines. Ignored for monolithic
	// snapshots (ChunkBytes == 0), which have nothing to parallelize.
	Workers int
	// ChunkBytes, when positive, switches to chunked snapshots: the body is
	// split into ChunkBytes-size pieces stored content-addressed (and
	// deduplicated) in the backend's chunk store, and the snapshot file
	// becomes a small manifest committed atomically after every chunk is
	// durable. Zero keeps monolithic snapshot files. Positive values must
	// fall in [MinChunkBytes, MaxChunkBytes]. With ChunkerCDC the value is
	// the target average chunk size rather than an exact boundary pitch.
	ChunkBytes int
	// Chunker selects how chunk boundaries are cut: ChunkerFixed (default)
	// splits at exact ChunkBytes offsets, ChunkerCDC derives boundaries
	// from content so dedup survives insertions and shifts. Ignored for
	// monolithic snapshots (ChunkBytes == 0).
	Chunker Chunker
	// Retain keeps the newest Retain anchor chains and garbage-collects
	// older files (and, for chunked snapshots, unreferenced chunks); 0
	// keeps everything.
	Retain int
	// Lifecycle demotes anchor chains that leave the hot set (see
	// LifecyclePolicy) down the tier hierarchy. Requires a Backend that is
	// a *storage.Tiered (storage.NewTiered over the levels, hot to cold:
	// saves land on the first level, reads fall through the hierarchy).
	// Migration runs on a background scheduler that paces itself and
	// yields to foreground save traffic; Close flushes one final
	// synchronous pass.
	Lifecycle LifecyclePolicy
	// Placement maps write classes to tier levels (see
	// storage.PlacementPolicy): manifests and anchor chunks pinned hot,
	// delta tails straight to warm. The zero value keeps
	// the classic write-to-hot rule. Requires a Backend that is a
	// *storage.Tiered.
	Placement storage.PlacementPolicy
}

func (o Options) withDefaults() Options {
	if o.AnchorEvery <= 0 {
		o.AnchorEvery = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Chunker selects how chunked snapshot bodies are cut into pieces.
type Chunker int

// Chunkers.
const (
	// ChunkerFixed cuts at fixed ChunkBytes boundaries — the default, and
	// the cheapest: boundary arithmetic is free and the incremental
	// dirty-chunk compare is a straight offset-indexed memcmp.
	ChunkerFixed Chunker = iota
	// ChunkerCDC derives boundaries from the bytes themselves (FastCDC
	// gear hash, see cdc.go) with ChunkBytes as the target average size.
	// Insertions and deletions perturb only the chunks overlapping the
	// edit instead of re-addressing everything downstream, so dedup
	// survives shifts. Snapshots are committed under CHUNKS3 manifests
	// recording the chunker parameters.
	ChunkerCDC
)

// String names the chunker the way the CLI flags spell it.
func (c Chunker) String() string {
	switch c {
	case ChunkerFixed:
		return "fixed"
	case ChunkerCDC:
		return "cdc"
	}
	return fmt.Sprintf("chunker(%d)", int(c))
}

// validateChunking checks the chunked-pipeline knobs shared by NewManager
// and Service.OpenJob: a ChunkBytes outside [MinChunkBytes, MaxChunkBytes]
// silently degenerates (see the bounds' comment in chunked.go), and a
// content-defined chunker without a chunk size has no target to aim at.
func validateChunking(opt Options) error {
	if opt.ChunkBytes < 0 {
		return fmt.Errorf("core: negative chunk size %d", opt.ChunkBytes)
	}
	if opt.ChunkBytes > 0 && (opt.ChunkBytes < MinChunkBytes || opt.ChunkBytes > MaxChunkBytes) {
		return fmt.Errorf("core: chunk size %d outside [%d, %d]", opt.ChunkBytes, MinChunkBytes, MaxChunkBytes)
	}
	switch opt.Chunker {
	case ChunkerFixed:
	case ChunkerCDC:
		if opt.ChunkBytes == 0 {
			return errors.New("core: ChunkerCDC requires ChunkBytes (the target average chunk size)")
		}
	default:
		return fmt.Errorf("core: unknown chunker %d", int(opt.Chunker))
	}
	return nil
}

// SaveResult reports what one Save produced.
type SaveResult struct {
	Kind         SnapshotKind
	Seq          uint64
	Step         uint64
	Path         string        // the snapshot's backend key
	FileBytes    int           // bytes written to storage (0 until async completes; excludes dedup hits)
	PayloadBytes int           // canonical payload size before delta/compression
	Encode       time.Duration // state capture + payload encode, its diff and section CRCs (always synchronous)
	Write        time.Duration // compression + I/O (0 for async saves)
}

// Stats aggregates manager activity for the benchmarks.
type Stats struct {
	Snapshots    int
	FullCount    int
	DeltaCount   int
	BytesWritten int64 // bytes that actually reached the backend (dedup hits excluded)
	BytesHashed  int64 // bytes fed to SHA-256 for payload identities: changed leaves and each root's input
	crcBytes     int64 // bytes fed to CRC-32C by the section seal: changed granules and partial ones
	WriteTime    time.Duration
	EncodeTime   time.Duration
	// Chunked-pipeline counters (zero for monolithic snapshots).
	Chunks      int // chunks referenced by written snapshots
	DedupHits   int // chunks skipped because identical content was present
	CleanChunks int // chunks reused by the dirty-chunk compare (no hash, compress or Stat)
	RawChunks   int // distinct chunks stored uncompressed by the adaptive probe
	ChunkBytes  int64
	// Lifecycle counters (zero without a tiered backend + policy).
	Migrated      int   // objects demoted down the tier hierarchy
	MigratedBytes int64 // bytes copied down by migrations
}

// Manager orchestrates checkpoint persistence: strategy selection, delta
// chaining, chunking and dedup, asynchronous writes through a worker
// pipeline, retention and recovery. A Manager is driven by a single
// trainer goroutine; the pipeline runs internally.
//
// Write path topology: Save encodes synchronously into pooled buffers and
// diffs the payload against the last one once, per 4 KiB granule. The map
// that pass leaves is handed down instead of the bytes: the payload hash,
// on a background goroutine from that moment, re-hashes only the leaves it
// marks, and a delta body XORs only the granules it marks. Save then either
// persists inline (sync mode) or enqueues the snapshot to a sequencer
// goroutine (async mode) that commits snapshots strictly in sequence order
// — a delta is never durable before its base. In chunked mode the
// persisting goroutine plans the body against the retained last body of
// its kind and reuses the addresses of unchanged chunks (a delta chunk
// that neither body's map marks without a compare, any other after a
// word-wise one), fans only the dirty chunks out to a pool of
// Options.Workers writers, and commits the manifest only after all
// referenced chunks are stored (DESIGN.md §9).
type Manager struct {
	opt     Options
	backend storage.Backend
	tiered  *storage.Tiered     // non-nil iff the backend is tiered
	chunks  *storage.ChunkStore // non-nil iff ChunkBytes > 0
	rule    cdcParams           // the chunk boundary rule, fixed or content-defined

	// shared is the chunk machinery — store, pin table, GC gate, reference
	// index. A standalone manager owns a private instance; managers opened
	// through a Service all hold the service's instance, which is what
	// makes cross-job dedup and orphan collection agree on liveness. ns is
	// what shared.root prefixes this manager's snapshot keys with.
	shared *sharedChunks
	ns     string

	mu          sync.Mutex
	seq         uint64
	lastPayload *refBuf      // base for the next delta (pooled, refcounted)
	lastHash    *payloadHash // lastPayload's identity, and the leaves the next payload's reuses
	sinceAnchor int
	stats       Stats
	asyncErr    error

	// Incremental-save state, owned by whichever goroutine runs persist —
	// the sequencer in async mode, the trainer inline otherwise; persists
	// are strictly serialized, so none of it is guarded by mu. bases holds
	// one dirty-compare base per body kind (see chunkBase): an anchor is
	// compared against the last committed anchor, a delta against the last
	// committed delta. pinScratch and reuseSpare (the planner's clean/dirty
	// list) are per-save scratch kept for their capacity.
	bases      [2]chunkBase
	pinScratch []string
	reuseSpare []string
	// fullIngest, set by tests before the first save, disables the
	// incremental path: every chunk is framed, hashed and offered to the
	// chunk store on every save. It is the oracle the incremental engine
	// must match byte for byte (TestIncrementalMatchesFullIngest).
	fullIngest bool
	// refs is the namespace's catalog, oldest first: listed at open,
	// appended to by commit, trimmed by gc, which reads it instead of the
	// store — a manager is its namespace's only writer. A failed delete
	// says someone else was there: stale makes the next pass list again.
	refs  []snapshotRef
	stale bool

	// qos, when non-nil, is the per-tenant QoS handle a Service wired in:
	// saves are charged against the tenant's byte quota and paced by its
	// token bucket after each persist.
	qos *tenantQoS

	// Background migration scheduler state (see scheduler.go). The
	// channels are nil unless Lifecycle is enabled.
	migrateKick chan struct{}
	migrateStop chan struct{}
	migrateDone sync.WaitGroup
	activityNs  atomic.Int64 // UnixNano of the last foreground save activity

	jobs      chan writeJob // async sequencer queue
	sequencer sync.WaitGroup
	tasks     chan func() // chunk-write worker pool (nil unless chunked with Workers > 1)
	workers   sync.WaitGroup
	pending   sync.WaitGroup // one count per queued async write
	closed    bool
	// drained turns true only after Close has quiesced the pipeline —
	// closed alone flips at the START of Close, while queued async saves
	// may still be committing manifests. A Service must not reopen the
	// job's namespace before that drain completes.
	drained bool
}

// chunkBase is the dirty-compare base of one body kind (a lineage): the
// last committed chunked body of that kind (a delta body keeps its dirty
// map beside its bytes, in the refBuf), the snapshot it was committed as,
// and its chunks' end offsets and frame addresses. A new body's chunk
// that plan proves identical to one of body's reuses its address with no
// hashing, compression or store traffic (DESIGN.md §9). The spare slices
// double-buffer addrs and cuts so
// steady-state saves reuse their capacity.
type chunkBase struct {
	body       *refBuf
	seq        uint64
	addrs      []string
	cuts       []int
	addrsSpare []string
	cutsSpare  []int
}

// drop forgets the base (its manifest is gone, or the manager is closing);
// the lineage's next save finds nothing to compare against.
func (b *chunkBase) drop() {
	b.body.release()
	b.body, b.addrs, b.cuts = nil, nil, nil
}

type writeJob struct {
	name string
	h    Header  // PayloadHash is zero; persist fills it from hash
	body *refBuf // holds one reference, released by the persist caller
	hash *payloadHash
}

// payloadHash carries a payload's identity (snapshot.go), computed on a
// background goroutine that overlaps everything up to the snapshot header
// encode. get is safe for concurrent use.
type payloadHash struct {
	done   chan struct{}
	root   [32]byte
	tree   []byte // the root's input, which the next save's hash takes over
	hashed int    // bytes fed to SHA-256
}

// startPayloadHash computes p.b's identity on its own goroutine, re-hashing
// only the leaves p.dirty marks against the previous payload, whose hash
// prevHash (nil for none) it waits for and takes over. It holds p, and lets
// it go before it publishes: whoever has joined the hash knows it is
// released.
func startPayloadHash(p *refBuf, prevHash *payloadHash) *payloadHash {
	p.retain()
	a := &payloadHash{done: make(chan struct{})}
	go func() {
		var tree []byte
		if prevHash != nil {
			prevHash.get()
			tree, prevHash.tree = prevHash.tree, nil
		}
		a.tree, a.root, a.hashed = hashLeaves(tree, p.b, p.dirty, leafBytes)
		p.release()
		close(a.done)
	}()
	return a
}

// get blocks until the hash is ready.
func (a *payloadHash) get() [32]byte {
	<-a.done
	return a.root
}

// NewManager opens the backend (creating the checkpoint directory for the
// default local backend) and returns a Manager.
func NewManager(opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	if opt.Retain < 0 {
		return nil, fmt.Errorf("core: negative retention %d", opt.Retain)
	}
	if err := validateChunking(opt); err != nil {
		return nil, err
	}
	if opt.Backend == nil {
		return nil, errors.New("core: Options.Backend required")
	}
	return newManager(opt, opt.Backend, nil)
}

// newManager wires a Manager over an already-resolved backend. shared,
// when non-nil, is the service-level chunk machinery the manager joins
// (one chunk store, pin table and GC gate for every job of a Service)
// instead of creating its own.
func newManager(opt Options, backend storage.Backend, shared *sharedChunks) (*Manager, error) {
	m := &Manager{opt: opt, backend: backend}
	m.tiered, _ = backend.(*storage.Tiered)
	if opt.Lifecycle.enabled() && m.tiered == nil {
		return nil, errors.New("core: Lifecycle requires a tiered backend (set Backend to a *storage.Tiered)")
	}
	if opt.Placement != (storage.PlacementPolicy{}) {
		if m.tiered == nil {
			return nil, errors.New("core: Placement requires a tiered backend (set Backend to a *storage.Tiered)")
		}
		if err := m.tiered.SetPlacement(opt.Placement); err != nil {
			return nil, err
		}
	}
	root, ns := storage.SharedBase(backend)
	if m.shared, m.ns = shared, ns; shared == nil {
		m.shared = newSharedChunks(backend, root)
	}
	if opt.ChunkBytes > 0 {
		m.chunks = m.shared.store
		m.rule = fixedParams(opt.ChunkBytes)
		if opt.Chunker == ChunkerCDC {
			m.rule = cdcParamsFor(opt.ChunkBytes)
		}
	}
	// Continue the sequence after any snapshots already in the backend,
	// so a restarted incarnation never overwrites its predecessor's files
	// (which would break delta chains that reference them). The first save
	// of a restarted delta-mode manager is always a full anchor because
	// lastPayload is empty. A listing that fails must fail the open:
	// starting at 0 over a predecessor's files would overwrite them.
	var err error
	if m.refs, err = listSnapshots(backend); err != nil {
		return nil, fmt.Errorf("core: list checkpoints: %w", err)
	}
	if m.seq, err = nextSeq(m.refs); err != nil {
		return nil, err
	}
	if opt.Workers > 1 && opt.ChunkBytes > 0 {
		m.tasks = make(chan func())
		for i := 0; i < opt.Workers; i++ {
			m.workers.Add(1)
			go func() {
				defer m.workers.Done()
				for fn := range m.tasks {
					fn()
				}
			}()
		}
	}
	if opt.Async {
		m.jobs = make(chan writeJob, 4)
		m.sequencer.Add(1)
		go m.runSequencer()
	}
	if opt.Lifecycle.enabled() {
		m.startMigrator()
	}
	return m, nil
}

// runSequencer drains the async queue, persisting snapshots strictly in
// submission (= sequence) order so crash consistency of delta chains is
// independent of chunk-write concurrency.
func (m *Manager) runSequencer() {
	defer m.sequencer.Done()
	for job := range m.jobs {
		if _, _, err := m.commit(job); err != nil {
			m.mu.Lock()
			if m.asyncErr == nil {
				m.asyncErr = err
			}
			m.mu.Unlock()
		}
		m.pending.Done()
	}
}

// commit is the tail of every save, run inline by a synchronous Save and by
// the sequencer for an asynchronous one: persist the snapshot, release its
// body, account the write, and — once it is durable — pay the tenant's QoS
// debt, apply retention and wake the migrator. It returns the bytes newly
// written and how long the persist took.
func (m *Manager) commit(job writeJob) (n int, dur time.Duration, err error) {
	m.markActivity()
	start := time.Now()
	n, fileBytes, err := m.persist(job)
	dur = time.Since(start)
	m.markActivity()
	job.body.release()
	job.hash.get() // joined already unless persist failed first; Close relies on this join
	m.mu.Lock()
	m.stats.BytesWritten += int64(n)
	m.stats.BytesHashed += int64(job.hash.hashed)
	m.stats.WriteTime += dur
	m.mu.Unlock()
	if err == nil {
		m.refs = append(m.refs, snapshotRef{key: job.name, seq: job.h.Seq, kind: job.h.Kind.Base(), size: int64(fileBytes)})
		m.chargeQoS(n)
		m.gc()
		m.kickMigrate()
	}
	return n, dur, err
}

// dispatch runs fn on the worker pool when one exists, inline otherwise.
// wg is incremented before submission and released when fn completes.
func (m *Manager) dispatch(wg *sync.WaitGroup, fn func()) {
	if m.tasks == nil {
		fn()
		return
	}
	wg.Add(1)
	m.tasks <- func() {
		defer wg.Done()
		fn()
	}
}

// persist writes one snapshot through the backend and returns the bytes
// newly written (dedup hits and clean-chunk reuse count zero) and how many
// of them are the snapshot object itself. The caller keeps job.body alive
// until persist returns and releases it afterwards.
func (m *Manager) persist(job writeJob) (n, fileBytes int, err error) {
	if m.chunks == nil {
		job.h.PayloadHash = job.hash.get()
		n, err = m.putSnapshot(job.name, job.h, job.body.b)
		return n, n, err
	}
	return m.persistChunked(job)
}

// putSnapshot encodes one snapshot object in pooled scratch and commits it,
// returning its size.
func (m *Manager) putSnapshot(name string, h Header, body []byte) (int, error) {
	sp := getScratch()
	data, err := appendSnapshotFile((*sp)[:0], h, body)
	if err == nil {
		err = storage.PutClass(m.backend, name, data, storage.ClassManifest)
	}
	n := len(data)
	if data != nil {
		*sp = data
	}
	putScratch(sp)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// chunkKeySeed keys the intra-save duplicate-collapse map. The collapse
// only needs a cheap process-local discriminator (collisions fall back to
// a byte compare), so it uses maphash instead of burning a second SHA-256
// pass over every chunk — the one content hash per chunk is of the framed
// bytes, threaded through ChunkStore.Ingest.
var chunkKeySeed = maphash.MakeSeed()

// persistChunked runs the incremental chunked save: plan cuts the body
// under the manager's boundary rule against the retained base of the
// body's own kind — the last committed anchor for an anchor, the last
// committed delta for a delta — so chunks it proves unchanged reuse their
// prior addresses outright, and only dirty chunks are framed (adaptive
// raw/flate), hashed once, and offered to the chunk store concurrently on
// the worker pool.
// The manifest commits only after every referenced chunk is durable, so a
// crash can orphan chunks but never dangle a manifest. At steady state
// with few dirty bytes, the work is O(dirty bytes) plus one memcmp pass —
// no hashing, compression or backend Stat for the clean remainder, on
// anchors as on deltas.
//
// Clean-chunk reuse is sound because a base's manifest outlives the base:
// a base is adopted only once its manifest has committed, and the only
// thing that deletes manifests under a live manager is retention gc, which
// runs on this goroutine and drops every base older than its cutoff before
// it deletes anything (the anchor base is the live chain's own anchor, so
// it is never among them; with Retain 1 the delta base is, once per
// chain). A manifest that exists keeps its chunks counted in the reference
// index, and tier moves keep their keys. The reused addresses are
// pinned across the commit anyway — the same protocol dirty chunks
// follow — so the argument does not depend on that invariant alone.
func (m *Manager) persistChunked(job writeJob) (n, fileBytes int, err error) {
	body := job.body.b
	incremental := !m.fullIngest
	// The body's kind picks its lineage and its write class. The class rides
	// every chunk of this snapshot down to the placement policy: anchor
	// chunks are the base every restore replays from, delta chunks are tail
	// segments only an exact-step restore reads — the policy may send the
	// latter straight to warm. Only a delta hands plan its dirty map: an
	// anchor's base is not the payload its map was diffed against.
	lin, chunkClass, dirty := &m.bases[0], storage.ClassAnchorChunk, dirtyMap{}
	if job.h.Kind.Base() != KindFull {
		lin, chunkClass, dirty = &m.bases[1], storage.ClassDeltaChunk, job.body.dirty
	}
	// prev is the base this save compares against: nil with no committed
	// body of this kind yet (first save, restart, dropped by gc) or under
	// fullIngest.
	var prev *chunkBase
	if incremental && lin.body != nil {
		prev = lin
	}
	// reuse[i] != "" names the address plan proved chunk i shares with prev;
	// cuts are the chunk end offsets, retained as the next save's base.
	reuse, cuts := m.plan(body, m.rule, prev, lin.cutsSpare[:0], dirty)
	defer func() { m.reuseSpare = reuse[:0] }()
	pieces := cdcPieces(body, cuts)

	type result struct {
		addr    string // set once the chunk is pinned against concurrent GC
		written int
		raw     bool
		err     error
	}
	// group collapses identical dirty pieces before dispatch: delta bodies
	// are mostly zero runs, so one save usually repeats the same chunk many
	// times. Framing each distinct piece once keeps concurrent workers from
	// racing Ingest's exists-check on their own duplicates (harmless for
	// the stored data, but it would double-write and skew the dedup stats).
	type group struct {
		piece []byte
		res   *result
	}
	// addrs double-buffers against the lineage's retained addresses; every
	// index is written below — clean chunks at compare time, dirty chunks
	// after the workers finish.
	addrs := lin.addrsSpare
	if cap(addrs) < len(pieces) {
		addrs = make([]string, len(pieces))
	} else {
		addrs = addrs[:len(pieces)]
	}
	results := make([]*result, len(pieces))
	groups := make(map[uint64][]*group, len(pieces))
	clean := 0
	cleanPins := m.pinScratch[:0]
	var wg sync.WaitGroup
	for i, piece := range pieces {
		// A clean chunk's address is pinned like any other chunk until our
		// commit.
		if reused := reuse[i]; reused != "" {
			addrs[i] = reused
			m.shared.pins.pin(reused)
			cleanPins = append(cleanPins, reused)
			clean++
			continue
		}
		key := maphash.Bytes(chunkKeySeed, piece)
		var g *group
		for _, cand := range groups[key] {
			if bytes.Equal(cand.piece, piece) {
				g = cand
				break
			}
		}
		if g != nil {
			results[i] = g.res
			continue
		}
		g = &group{piece: piece, res: &result{}}
		groups[key] = append(groups[key], g)
		results[i] = g.res
		r := g.res
		piece := piece
		m.dispatch(&wg, func() {
			sp := getScratch()
			frame, err := appendChunkFrame((*sp)[:0], piece)
			if err != nil {
				putScratch(sp)
				r.err = err
				return
			}
			// Pin before touching the store: Manager.CollectOrphans
			// re-checks live pins immediately before each delete, so the
			// pin shields this chunk — written or dedup-hit, even an
			// orphan of a deleted manifest — until our manifest commits.
			// The frame's content hash is computed exactly once here and
			// threaded through as the chunk address.
			addr := storage.Hash(frame)
			r.addr = addr
			m.shared.pins.pin(addr)
			r.raw = frame[0] == chunkFrameRaw
			r.written, r.err = m.chunks.Ingest(addr, frame, chunkClass)
			*sp = frame
			putScratch(sp)
		})
	}
	wg.Wait()
	// Pins are released only after the manifest commit below — inside the
	// gcGate read section, behind the manifest's entry in the reference
	// index, so a concurrent sweep either counts the manifest or finds the
	// pins still held — or on abort, where no manifest will ever reference
	// the chunks: plain release is safe, and the next retention pass gets
	// them as unclaimed. unpinAll is idempotent; the defer covers every
	// abort path.
	unpinned := false
	unpinAll := func(abort bool) {
		if unpinned {
			return
		}
		unpinned = true
		for _, a := range cleanPins {
			m.shared.pins.unpin(a)
		}
		for _, gs := range groups {
			for _, g := range gs {
				if g.res.addr != "" {
					m.shared.pins.unpin(g.res.addr)
					if abort { // unpinned first: a sweep that finds it pinned forgets it
						m.shared.unclaimed(g.res.addr)
					}
				}
			}
		}
	}
	defer unpinAll(!m.shared.remote)
	defer func() { m.pinScratch = cleanPins[:0] }()

	total, distinct, ingestHits, raws := 0, 0, 0, 0
	for _, gs := range groups {
		for _, g := range gs {
			distinct++
			if g.res.err != nil {
				return 0, 0, fmt.Errorf("core: write chunk: %w", g.res.err)
			}
			total += g.res.written
			if g.res.written == 0 {
				ingestHits++
			}
			if g.res.raw {
				raws++
			}
		}
	}
	// Dedup hits: intra-save duplicates collapsed before dispatch, plus
	// store-level hits on distinct pieces. Clean chunks are counted apart —
	// they never reached the store at all.
	dedup := (len(pieces) - clean - distinct) + ingestHits

	for i, r := range results {
		if r != nil {
			addrs[i] = r.addr
		}
	}
	h := job.h
	h.Kind = h.Kind.chunkedVariant()
	// Join the background payload hash only now: it has been running since
	// the moment the payload was encoded, concurrent with the compare and
	// the chunk workers above.
	h.PayloadHash = job.hash.get()
	msp := getScratch()
	manifest := appendChunkManifest((*msp)[:0], len(body), m.rule, addrs)
	fileBytes, err = m.putSnapshot(job.name, h, manifest)
	*msp = manifest
	putScratch(msp)
	if err != nil {
		// The deferred unpinAll releases; no manifest exists to dangle. The
		// lineage keeps its base — that manifest is still committed.
		lin.addrsSpare, lin.cutsSpare = addrs[:0], cuts[:0]
		return 0, 0, err
	}
	// Chunk ownership for quota accounting: the caller is about to charge
	// this save's written bytes to the tenant, so record which chunks the
	// charge covered — when a later collection sweeps one, the tenant
	// gets its bytes back (creditSwept). Recorded before the pins release
	// so the entries exist before any sweep could touch the chunks.
	if m.qos != nil {
		for _, gs := range groups {
			for _, g := range gs {
				if g.res.written > 0 {
					m.shared.recordChunkCharge(g.res.addr, m.qos, int64(g.res.written))
				}
			}
		}
	}
	// Enter the manifest in the reference index and release the pins under
	// the gcGate read side, so the release lands either before a sweep (the
	// addresses are counted) or after it (the pins were live at every
	// delete check). The gate is held only for this instant.
	m.shared.gcGate.RLock()
	m.shared.setRefs(m.ns+job.name, addrs)
	unpinAll(false)
	m.shared.gcGate.RUnlock()
	// Adopt this body as its lineage's dirty-compare base, double-buffering
	// the address and cut slices so steady-state saves allocate neither.
	if incremental {
		job.body.retain()
		lin.body.release()
		*lin = chunkBase{
			body: job.body, seq: job.h.Seq, addrs: addrs, cuts: cuts,
			addrsSpare: lin.addrs[:0], cutsSpare: lin.cuts[:0],
		}
	} else {
		lin.addrsSpare, lin.cutsSpare = addrs[:0], cuts[:0]
	}
	m.mu.Lock()
	m.stats.Chunks += len(pieces)
	m.stats.DedupHits += dedup
	m.stats.CleanChunks += clean
	m.stats.RawChunks += raws
	m.stats.ChunkBytes += int64(total)
	m.mu.Unlock()
	return total + fileBytes, fileBytes, nil
}

// plan cuts body under rule p and returns the chunk end offsets, appended
// to cuts (the lineage retains them on commit), and a parallel reuse list
// naming the address prev — the body's lineage base, nil for none — holds
// for every chunk proven byte-identical ("" = dirty, to be framed and
// ingested). The cuts are exactly appendCutpoints(body, p), so reused and
// freshly ingested histories are byte-identical: nextCut restarts at every
// cutpoint, so a chunk's end depends only on its start and its own bytes
// (a fixed rule reads none). Two adoption rules keep a steady-state save
// O(dirty chunks) of cutting and hashing:
//
//   - In place: the scan sits on an old chunk's start and that chunk's
//     bytes are unchanged at the same offsets (one bytes.Equal). The old
//     cut read exactly those bytes, so it is the next cut here too — unless
//     it was the old body's end-of-data cut, which a longer or shorter body
//     cuts differently: the old final chunk is adopted only when the bodies
//     end at the same offset, or when it is a full maxSize chunk (cut there
//     whatever follows). Otherwise one cut is taken fresh and the scan
//     re-aligns, so islands of unchanged bytes after a dirty chunk adopt
//     again, not just the prefix.
//   - Shifted: when the lengths differ by δ, a fresh cut δ away from an old
//     cut inside the common suffix means the rest of the body is the rest
//     of the old body shifted, and every remaining old chunk is adopted at
//     cut + δ. The suffix is measured only when δ ≠ 0.
//
// Under the fixed rule every cut lands on an old chunk's start, so in-place
// adoption is an offset-indexed compare, and shifted adoption fires only on
// a shift by a whole number of chunks. Chunks that merely moved otherwise
// still dedup at the store: a shift costs re-hashing, not re-writing.
//
// dirty is body's map when body is a delta (the zero map otherwise). When
// both delta bodies carry a map and declare the same lengths, a chunk whose
// payload granules neither map marks is zero in both and is adopted in
// place without the bytes.Equal.
func (m *Manager) plan(body []byte, p cdcParams, prev *chunkBase, cuts []int, dirty dirtyMap) ([]string, []int) {
	reuse := m.reuseSpare[:0]
	var (
		old      []byte
		oldCuts  []int
		oldAddrs []string
		was      dirtyMap
	)
	if prev != nil {
		old, oldCuts, oldAddrs = prev.body.b, prev.cuts, prev.addrs
		if dirty.gran > 0 && bytes.Equal(body[:deltaHeaderLen], old[:deltaHeaderLen]) {
			was = prev.body.dirty
		}
	}
	// zero reports whether the maps prove body[pos:end] zero in both bodies.
	zero := func(pos, end int) bool {
		lo, hi := max(pos, deltaHeaderLen)-deltaHeaderLen, end-deltaHeaderLen
		return was.clean(lo, hi) && dirty.clean(lo, hi)
	}
	delta := len(body) - len(old)
	resync := len(body) // fresh cuts from here on read the common suffix
	if delta != 0 {
		resync -= commonSuffixWords(body, old)
	}
	last := len(oldCuts) - 1
	for pos, j := 0, 0; pos < len(body); { // j: the old chunk that would start at pos
		if j <= last && (j == 0 && pos == 0 || j > 0 && oldCuts[j-1] == pos) {
			end := oldCuts[j]
			if end <= len(body) && (j < last || delta == 0 || end-pos == p.maxSize) && (zero(pos, end) || bytes.Equal(body[pos:end], old[pos:end])) {
				cuts = append(cuts, end)
				reuse = append(reuse, oldAddrs[j])
				pos, j = end, j+1
				continue
			}
		}
		pos += p.nextCut(body[pos:])
		cuts = append(cuts, pos)
		reuse = append(reuse, "")
		if pos >= resync && pos < len(body) {
			if k, ok := slices.BinarySearch(oldCuts, pos-delta); ok {
				for _, c := range oldCuts[k+1:] {
					cuts = append(cuts, c+delta)
				}
				reuse = append(reuse, oldAddrs[k+1:]...)
				break
			}
		}
		for j <= last && oldCuts[j] <= pos {
			j++
		}
	}
	return reuse, cuts
}

// cdcPieces materializes the piece slices for a cut list (chunk end
// offsets); each piece aliases body.
func cdcPieces(body []byte, cuts []int) [][]byte {
	pieces := make([][]byte, len(cuts))
	start := 0
	for i, c := range cuts {
		pieces[i] = body[start:c]
		start = c
	}
	return pieces
}

// CollectOrphans removes unreferenced chunks from the manager's chunk
// store while honoring the pins of saves still in flight, so it is safe
// to call concurrently with async chunked saves — unlike the
// package-level CollectOrphanChunks, which must only run against a
// quiescent backend. It walks the whole inventory, which retention never
// does: this is where chunks a previous process left are reclaimed. For a
// manager opened through a Service the store, pins and index are the
// service-wide ones, so every chunk any job references is kept.
//
// When the backend has an authoritative collector of its own — a remote
// store shared by clients this process cannot see — the collection is
// delegated there: a local sweep would honor only this process's pins.
func (m *Manager) CollectOrphans() (removed int, reclaimed int64, err error) {
	if removed, reclaimed, ok, err := storage.TryCollectOrphans(m.backend); ok {
		return removed, reclaimed, err
	}
	return m.shared.collectOrphans()
}

// Save captures the state and persists it according to the strategy. In
// async mode the returned SaveResult has FileBytes and Write set to zero;
// aggregate numbers appear in Stats after Barrier.
func (m *Manager) Save(state *TrainingState) (SaveResult, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return SaveResult{}, errors.New("core: manager closed")
	}
	if m.asyncErr != nil {
		err := m.asyncErr
		m.asyncErr = nil
		m.mu.Unlock()
		return SaveResult{}, fmt.Errorf("core: async checkpoint failed earlier: %w", err)
	}
	m.mu.Unlock()
	m.markActivity()
	// Quota is a soft ceiling checked at save admission: bytes already
	// charged to the tenant (GC credits them back) must leave room for
	// something — the save's true footprint is only known after dedup.
	if err := m.qos.checkQuota(); err != nil {
		return SaveResult{}, err
	}

	// Encode into a pooled buffer: at steady state the synchronous stage
	// reuses the capacity of a payload retired two saves ago instead of
	// allocating afresh (see pool.go for the ownership rules).
	encStart := time.Now()
	if err := state.Validate(); err != nil {
		return SaveResult{}, err
	}
	payload := getBody(payloadSizeHint(state))
	payload.b = appendSections(payload.b, state)

	m.mu.Lock()
	// The save's one diff pass — the granules that changed since the last
	// payload — and the section CRCs sealed on it. The leaf hash, the delta
	// body and the delta's chunk plan read the map too, not the bytes.
	m.stats.crcBytes += int64(payload.seal(m.lastPayload))
	encDur := time.Since(encStart)
	// The payload hash overlaps everything up to the snapshot header
	// encode: delta encode, the dirty-chunk compare, chunk framing.
	hash := startPayloadHash(payload, m.lastHash)
	kind := KindFull
	var baseHash [32]byte
	var body *refBuf
	if m.opt.Strategy == StrategyDelta && m.lastPayload != nil && m.sinceAnchor < m.opt.AnchorEvery-1 {
		kind = KindDelta
		baseHash = m.lastHash.get()
		body = getBody(16 + len(payload.b))
		body.b = appendDelta(body.b, m.lastPayload.b, payload.b, payload.dirty)
		// The body carries its own copy of the map for the chunk plan: as
		// its lineage's base it outlives the payload.
		d := payload.dirty
		body.dirty = dirtyMap{gran: d.gran, base: d.base, bits: append(body.dirty.bits, d.bits...)}
		m.sinceAnchor++
	} else {
		// Full snapshots share the payload buffer between the write job and
		// the retained delta base; the extra reference keeps it alive until
		// both let go.
		body = payload
		payload.retain()
		m.sinceAnchor = 0
	}
	seq := m.seq
	m.seq++
	m.lastPayload.release()
	m.lastPayload = payload
	m.lastHash = hash
	m.stats.Snapshots++
	if kind == KindFull {
		m.stats.FullCount++
	} else {
		m.stats.DeltaCount++
	}
	m.stats.EncodeTime += encDur
	async := m.opt.Async
	m.mu.Unlock()

	h := Header{
		Kind:     kind,
		Seq:      seq,
		Step:     state.Step,
		BaseHash: baseHash,
		// PayloadHash is filled by persist from the in-flight hash, as late
		// as the write path allows.
	}
	name := snapshotName(seq, kind)
	res := SaveResult{
		Kind: kind, Seq: seq, Step: state.Step, Path: name,
		PayloadBytes: len(payload.b), Encode: encDur,
	}

	if async {
		m.pending.Add(1)
		m.jobs <- writeJob{name: name, h: h, body: body, hash: hash}
		return res, nil
	}

	var err error
	res.FileBytes, res.Write, err = m.commit(writeJob{name: name, h: h, body: body, hash: hash})
	return res, err
}

// Backend returns the backend snapshots are persisted to. For a manager
// opened through a Service this is the job's view of the shared store, so
// recovery entry points (LoadLatestBackendOptions and friends) work
// against it directly.
func (m *Manager) Backend() storage.Backend { return m.backend }

// isClosed reports whether Close has RUN TO COMPLETION — pipeline
// drained, last manifest committed. A Service uses it to let a closed
// job be reopened; checking `closed` alone would admit a successor while
// the predecessor's queued async saves are still writing into the same
// namespace (the successor scans the namespace for its starting sequence
// number, so a still-draining writer could collide with it).
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed && m.drained
}

// Barrier waits for all queued async writes and returns the first error.
// It is a no-op in synchronous mode.
func (m *Manager) Barrier() error {
	m.pending.Wait()
	m.mu.Lock()
	err := m.asyncErr
	m.asyncErr = nil
	m.mu.Unlock()
	return err
}

// Close flushes async writes, stops the pipeline and shuts the manager
// down.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	jobs := m.jobs
	tasks := m.tasks
	m.mu.Unlock()
	if jobs != nil {
		close(jobs)
		m.sequencer.Wait()
	}
	if tasks != nil {
		close(tasks)
		m.workers.Wait()
	}
	// Stop the background migration scheduler, then run one final
	// synchronous pass: anything the scheduler did not get to while
	// yielding to foreground saves is settled before the store is handed
	// off. Best-effort like every migration — placement must not fail a
	// close.
	m.stopMigrator()
	if m.opt.Lifecycle.enabled() && m.tiered != nil {
		m.Migrate()
	}
	// The pipeline is quiesced and closed refuses further saves, so the
	// retained codec buffers can go back to their pool and the manifest
	// namespace is safe to hand to a successor (drained).
	m.mu.Lock()
	m.drained = true
	err := m.asyncErr
	m.asyncErr = nil
	lp := m.lastPayload
	m.lastPayload = nil
	m.lastHash = nil // joined by its commit, like every save's: no hash holds a buffer now
	m.mu.Unlock()
	lp.release()
	for i := range m.bases {
		m.bases[i].drop()
	}
	return err
}

// Stats returns a copy of the aggregate statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// gc applies the retention policy: keep every snapshot belonging to the
// newest Retain anchor chains, delete the rest, then sweep the chunks only
// they referenced (sharedChunks.retire). It reads the in-memory catalog,
// not the store, and touches only snapshots strictly older than the kept
// anchor, so it is safe against concurrent writes of newer files.
func (m *Manager) gc() {
	if m.opt.Retain <= 0 {
		return
	}
	if m.stale {
		refs, err := listSnapshots(m.backend)
		if err != nil {
			return // retention is best-effort: the next save's pass retries
		}
		m.refs, m.stale = refs, false
	}
	// The oldest chain kept is the Retain-th from the end (anchorChains'
	// grouping, read backwards so a pass costs what it keeps, not what the
	// catalog holds), and the cutoff its anchor.
	at, anchors := len(m.refs), 0
	for at > 0 && anchors < m.opt.Retain {
		if at--; m.refs[at].kind == KindFull {
			anchors++
		}
	}
	if anchors < m.opt.Retain || at == 0 {
		return // no more than Retain anchors exist; keep everything
	}
	cutoff := m.refs[at].seq
	// A dirty-compare base must not outlive its manifest: once that is
	// deleted nothing keeps the chunks it names. gc runs on the persist
	// goroutine, which owns the bases.
	for i := range m.bases {
		if b := &m.bases[i]; b.body != nil && b.seq < cutoff {
			b.drop()
		}
	}
	// Everything before the cutoff's anchor goes, newest first: what an
	// interrupted pass leaves is still a chain.
	expired := m.refs[:sort.Search(len(m.refs), func(i int) bool { return m.refs[i].seq >= cutoff })]
	gone, _, err := m.shared.retire(m.backend, m.ns, expired)
	for _, f := range gone {
		m.qos.creditQuota(f.size) // what commit charged for the manifest
	}
	m.stale = err != nil
	m.refs = m.refs[len(expired):]
}
