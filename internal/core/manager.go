package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
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

// validate checks the knobs every manager shares, standalone or a
// Service's job: a ChunkBytes outside [MinChunkBytes, MaxChunkBytes]
// silently degenerates (see the bounds' comment in chunked.go), and a
// content-defined chunker without a chunk size has no target to aim at.
func (opt Options) validate() error {
	if opt.Retain < 0 {
		return fmt.Errorf("core: negative retention %d", opt.Retain)
	}
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

// Stats aggregates manager activity for the benchmarks.
type Stats struct {
	Snapshots      int
	FullCount      int
	DeltaCount     int
	BytesWritten   int64    // bytes that actually reached the backend (dedup hits excluded)
	BytesHashed    int64    // bytes fed to SHA-256 for payload identities: changed leaves and each root's input
	crcBytes       int64    // bytes fed to CRC-32C by the section seal: changed granules and partial ones
	validatedBytes int64    // parameter bytes the seal's check read: those under changed granules
	copiedBytes    int64    // bytes the seal wrote into payload buffers: the granules two maps mark, or every byte
	Cost           SaveCost // every save's stages, summed
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
// The write path is save.go: Save encodes, diffs and seals on the trainer's
// goroutine, then persists inline (sync mode) or through a sequencer
// goroutine (async mode) that commits strictly in sequence order — a delta
// is never durable before its base.
type Manager struct {
	opt     Options
	backend storage.Backend
	clock   clock.Clock         // times the save ledger, QoS pacing and the migrator
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

	spans payloadSpans // the trainer's: the state being saved, laid out

	mu          sync.Mutex
	seq         uint64
	lastPayload *refBuf      // base for the next delta (pooled, refcounted)
	lagging     *refBuf      // the payload saved before lastPayload, which the next save may patch into its own
	lastParams  [2]int       // where lastPayload holds its parameters
	lastHash    *payloadHash // lastPayload's identity, and the leaves the next payload's reuses
	zeros       zeroBodies   // the delta bodies no save holds, zeroed for the next delta
	sinceAnchor int
	stats       Stats
	asyncErr    error

	// Incremental-save state, owned by whichever goroutine runs commit —
	// the sequencer in async mode, the trainer inline otherwise; persists
	// are strictly serialized, so none of it is guarded by mu. bases holds
	// one dirty-compare base per body kind (see chunkBase): an anchor is
	// compared against the last committed anchor, a delta against the last
	// committed delta. pinScratch, reuseSpare (the planner's clean/dirty
	// list), pieceSpare, pieceOf and pieceKeys (writeChunks' distinct dirty
	// pieces, each chunk's piece and the maphash index over them) are
	// per-save scratch kept for their capacity; framing counts the pieces
	// on the worker pool.
	bases      [2]chunkBase
	pinScratch []string
	reuseSpare []string
	pieceSpare []chunkPiece
	pieceOf    []int
	pieceKeys  map[uint64]int
	framing    sync.WaitGroup
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
	activityNs  atomic.Int64 // UnixNano of the last foreground save activity, a ledger stamp

	jobs      chan writeJob // async sequencer queue
	sequencer sync.WaitGroup
	tasks     chan *chunkPiece // chunk-write worker pool (nil unless chunked with Workers > 1)
	workers   sync.WaitGroup
	pending   sync.WaitGroup // one count per queued async write
	closed    bool
	// drained turns true only after Close has quiesced the pipeline —
	// closed alone flips at the START of Close, while queued async saves
	// may still be committing manifests. A Service must not reopen the
	// job's namespace before that drain completes.
	drained bool
}

// NewManager returns a Manager over opt.Backend, continuing the sequence of
// the snapshots already in it.
func NewManager(opt Options) (*Manager, error) {
	if opt.Backend == nil {
		return nil, errors.New("core: Options.Backend required")
	}
	return newManager(opt, opt.Backend, nil, clock.Wall)
}

// newManager validates opt and wires a Manager over an already-resolved
// backend. shared, when non-nil, is the service-level chunk machinery the
// manager joins (one chunk store, pin table and GC gate for every job of a
// Service) instead of creating its own.
func newManager(opt Options, backend storage.Backend, shared *sharedChunks, clk clock.Clock) (*Manager, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.AnchorEvery <= 0 {
		opt.AnchorEvery = 16
	}
	opt.Workers = max(opt.Workers, 1)
	m := &Manager{opt: opt, backend: backend, clock: clk, pieceKeys: map[uint64]int{}}
	m.tiered, _ = backend.(*storage.Tiered)
	if opt.Lifecycle.enabled() && m.tiered == nil {
		return nil, errors.New("core: Lifecycle requires a tiered backend (set Backend to a *storage.Tiered)")
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
		m.tasks = make(chan *chunkPiece)
		for i := 0; i < opt.Workers; i++ {
			m.workers.Add(1)
			go func() {
				defer m.workers.Done()
				for p := range m.tasks {
					m.frame(p)
					m.framing.Done()
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

// Backend returns the backend snapshots are persisted to. For a manager
// opened through a Service this is the job's view of the shared store, so
// the one recovery entry point, LoadLatestBackendOptions, works against it
// directly.
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
	m.mu.Unlock()
	if m.jobs != nil {
		close(m.jobs)
		m.sequencer.Wait()
	}
	if m.tasks != nil {
		close(m.tasks)
		m.workers.Wait()
	}
	// Stop the background migration scheduler, then run one final
	// synchronous pass: anything the scheduler did not get to while
	// yielding to foreground saves is settled before the store is handed
	// off. Best-effort like every migration — placement must not fail a
	// close.
	m.stopMigrator()
	if m.opt.Lifecycle.enabled() {
		m.Migrate()
	}
	// The pipeline is quiesced and closed refuses further saves, so the
	// retained codec buffers can go back to their pool and the manifest
	// namespace is safe to hand to a successor (drained).
	m.mu.Lock()
	m.drained = true
	err := m.asyncErr
	m.asyncErr = nil
	m.lastPayload.release()
	m.lagging.release()
	m.lastPayload, m.lagging, m.lastHash = nil, nil, nil // the hash was joined by its commit, like every save's: it holds no buffer now
	m.mu.Unlock()
	for i := range m.bases {
		m.bases[i].drop()
	}
	m.zeros.drain()
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
