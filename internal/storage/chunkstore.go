package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrChunkNotFound is returned by ChunkStore.Get for unknown
// addresses.
var ErrChunkNotFound = errors.New("storage: chunk not found")

// DefaultChunkShards is the shard count NewChunkStore uses: enough stripes
// that a full trainer fleet (the T7 workload tops out at 16 concurrent
// jobs) rarely collides on one mutex, small enough that the per-shard maps
// stay cache-friendly.
const DefaultChunkShards = 32

// maxChunkShards bounds the shard count to the address space of the
// routing prefix (the first two hex digits select the shard, so more than
// 256 shards would leave some permanently empty).
const maxChunkShards = 256

// ChunkStore is a content-addressed blob store on any Backend: chunks
// are stored under <first2>/<hash>. Identical content is stored
// once, which is what makes incremental checkpoint chains and chunked
// snapshots cheap when content repeats between saves — including across
// tenants: several checkpoint managers (one per training job) can ingest
// into the same store concurrently and share every repeated chunk.
//
// The store is partitioned into shards by the same leading hash byte that
// fans chunks out on disk. Each shard has its own mutex and verification
// cache, so concurrent Ingest/Get traffic from different jobs serializes
// only when two operations land on the same shard — with the default
// shard count that is a 1-in-32 collision, not a global lock. All methods
// are safe for concurrent use when the backend is.
type ChunkStore struct {
	b      Backend
	shards []chunkShard
}

// chunkShard is one lock stripe: a mutex plus the verification cache for
// the addresses routed to it. verified remembers addresses whose resident
// bytes this process has already read and matched against the address
// (Ingest's dedup verification or a content-checked Get). It bounds
// verification cost to one read per address per process: without it a
// long run would re-read every recurring chunk on every save — on a
// tiered backend, at cold-device cost once the chunk demotes.
type chunkShard struct {
	mu       sync.Mutex
	verified map[string]bool
}

// NewShardedChunkStore returns a chunk store on b partitioned into the
// given number of lock stripes (clamped to [1, 256]; values ≤ 0 select
// DefaultChunkShards). Namespace the backend with WithPrefix when chunks
// share it with other objects.
func NewShardedChunkStore(b Backend, shards int) *ChunkStore {
	if shards <= 0 {
		shards = DefaultChunkShards
	}
	if shards > maxChunkShards {
		shards = maxChunkShards
	}
	cs := &ChunkStore{b: b, shards: make([]chunkShard, shards)}
	for i := range cs.shards {
		cs.shards[i].verified = make(map[string]bool)
	}
	return cs
}

// NewChunkStore returns a chunk store on b with the default shard count.
func NewChunkStore(b Backend) *ChunkStore {
	return NewShardedChunkStore(b, DefaultChunkShards)
}

// hexNibble decodes one lowercase-hex digit; ok=false otherwise.
func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ShardIndex maps a chunk address to a shard index in [0, n): the first
// two hex digits — the address's on-disk fan-out prefix — reduced modulo
// n. Malformed or short addresses map to 0 (harmless: routing only needs
// to be deterministic, and key() rejects them before any backend
// traffic). This is THE striping rule: the chunk store's lock shards and
// the checkpoint engine's pin-table stripes both route through it, so a
// chunk's store shard and pin stripe stay aligned by construction.
func ShardIndex(addr string, n int) int {
	if len(addr) < 2 || n <= 1 {
		return 0
	}
	hi, ok1 := hexNibble(addr[0])
	lo, ok2 := hexNibble(addr[1])
	if !ok1 || !ok2 {
		return 0
	}
	return int(hi<<4|lo) % n
}

// ShardOf maps a chunk address to this store's shard index.
func (cs *ChunkStore) ShardOf(addr string) int {
	return ShardIndex(addr, len(cs.shards))
}

func (cs *ChunkStore) shard(addr string) *chunkShard {
	return &cs.shards[cs.ShardOf(addr)]
}

func (cs *ChunkStore) key(addr string) (string, error) {
	if len(addr) != 64 || strings.ContainsAny(addr, "/\\.") {
		return "", fmt.Errorf("storage: malformed chunk address %q", addr)
	}
	return addr[:2] + "/" + addr, nil
}

// Put stores data under its content address, which it returns: hash, then
// Ingest. Re-putting identical content is a no-op returning the same
// address.
func (cs *ChunkStore) Put(data []byte) (string, error) {
	addr := Hash(data)
	_, err := cs.Ingest(addr, data, ClassDefault)
	return addr, err
}

// AddressedIngester is an optional Backend extension that moves the
// content-addressed ingest decision — "do you already have these bytes?"
// — into the backend itself. A remote backend implements it to run the
// address-first dedup handshake server-side: one existence probe, then an
// upload only on a miss, with the server (not this process) owning
// verification of the resident copy. Composite backends forward the call
// toward their base and report ok=false when the routed base is a plain
// backend, in which case the chunk store falls back to its local
// Stat/compare/Put protocol.
type AddressedIngester interface {
	// IngestKeyed stores data — whose content address is addr — at key iff
	// the key is absent, returning the bytes newly written (0 on a dedup
	// hit). ok=false means the backend cannot take over the ingest and the
	// caller must run the generic protocol itself.
	IngestKeyed(key, addr string, data []byte) (written int, ok bool, err error)
}

// TryIngestKeyed delegates an addressed ingest to b when it implements
// AddressedIngester, and reports ok=false otherwise. The chunk store
// ingests through TryIngestKeyedClass; this spelling is what Forward's
// classless IngestKeyed and bench's span wrapper pass on.
func TryIngestKeyed(b Backend, key, addr string, data []byte) (written int, ok bool, err error) {
	if ai := Caps(b).Ingest; ai != nil {
		return ai.IngestKeyed(key, addr, data)
	}
	return 0, false, nil
}

// Ingest stores data, whose content address the caller computed, and
// reports how many bytes were newly written — 0 on a verified dedup hit.
// The write pipeline uses this to account true storage traffic under
// deduplication.
//
// Hash-once contract: data's SHA-256 is computed exactly once, by whoever
// needs it first. The save pipeline hashes each framed chunk to pin it
// against GC and the server verifies an upload against its address; both
// hand the address down instead of having the store hash the bytes again
// (BenchmarkIngestAddressed measures what that second pass would cost).
// addr must equal Hash(data); a wrong address corrupts the store's
// content addressing.
//
// A dedup hit is verified, not trusted: a Stat-only check would keep
// whatever bytes sit at the address — a chunk corrupted since an earlier
// save, or a torn foreign write — and silently drop the good data being
// ingested. The resident copy is size-checked and then compared; on any
// mismatch the good bytes are rewritten, repairing the store.
//
// A miss is written through the backend's ClassWriter (when it has one),
// so a tiered store places anchor chunks hot and delta tails warm while
// the dedup protocol stays identical. The class only influences where a
// *new* chunk lands — a dedup hit leaves the resident copy wherever it
// lives, whatever class the hit carries.
func (cs *ChunkStore) Ingest(addr string, data []byte, class WriteClass) (written int, err error) {
	key, err := cs.key(addr)
	if err != nil {
		return 0, err
	}
	// A backend that owns the dedup decision (a remote store running the
	// address-first handshake) takes the ingest whole; its answer is
	// authoritative, including verification of any resident copy.
	if w, ok, derr := TryIngestKeyedClass(cs.b, key, addr, data, class); ok {
		if derr != nil {
			return 0, derr
		}
		return w, nil
	}
	if info, serr := cs.b.Stat(key); serr == nil {
		if cs.isVerified(addr) && info.Size == int64(len(data)) {
			return 0, nil // dedup hit, bytes already verified this process
		}
		if info.Size == int64(len(data)) {
			if existing, gerr := cs.b.Get(key); gerr == nil && bytes.Equal(existing, data) {
				cs.markVerified(addr)
				return 0, nil // verified dedup hit
			}
		}
		// Resident copy truncated, corrupt, or unreadable: fall through and
		// overwrite it with the bytes we know hash to this address.
	}
	if err := PutClass(cs.b, key, data, class); err != nil {
		return 0, err
	}
	cs.markVerified(addr)
	return len(data), nil
}

func (cs *ChunkStore) isVerified(addr string) bool {
	s := cs.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verified[addr]
}

func (cs *ChunkStore) markVerified(addr string) {
	s := cs.shard(addr)
	s.mu.Lock()
	s.verified[addr] = true
	s.mu.Unlock()
}

func (cs *ChunkStore) unmarkVerified(addr string) {
	s := cs.shard(addr)
	s.mu.Lock()
	delete(s.verified, addr)
	s.mu.Unlock()
}

// Get retrieves the chunk at addr, verifying its content against the
// address (detects backend corruption).
func (cs *ChunkStore) Get(addr string) ([]byte, error) {
	data, err := cs.GetUnchecked(addr)
	if err != nil {
		return nil, err
	}
	if Hash(data) != addr {
		return nil, fmt.Errorf("storage: chunk %s corrupt in backend", addr)
	}
	cs.markVerified(addr)
	return data, nil
}

// GetUnchecked retrieves whatever bytes sit at addr, unhashed, for a reader
// that checks what it builds from them against a hash of its own. It vouches
// for nothing: the verified set is not fed, a later Ingest still compares.
func (cs *ChunkStore) GetUnchecked(addr string) ([]byte, error) {
	key, err := cs.key(addr)
	if err != nil {
		return nil, err
	}
	data, err := cs.b.Get(key)
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrChunkNotFound, addr)
	} else if err != nil {
		return nil, fmt.Errorf("storage: read chunk: %w", err)
	}
	return data, nil
}

// Has reports whether addr is present.
func (cs *ChunkStore) Has(addr string) bool {
	key, err := cs.key(addr)
	if err != nil {
		return false
	}
	_, statErr := cs.b.Stat(key)
	return statErr == nil
}

// List returns all stored addresses, sorted.
func (cs *ChunkStore) List() ([]string, error) {
	keys, err := cs.b.List("")
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, k := range keys {
		parts := strings.Split(k, "/")
		if len(parts) != 2 || len(parts[0]) != 2 || len(parts[1]) != 64 {
			continue
		}
		addrs = append(addrs, parts[1])
	}
	return addrs, nil
}

// Sweep deletes the chunks in addrs not excused by skip, a nil-able
// predicate re-evaluated immediately before each delete. The checkpoint
// engine calls it with the candidates of a retention pass, or with an
// inventory it listed before scanning manifests, and its reference-and-pin
// check as skip. An address with no chunk behind it is an ordinary input
// and counts for nothing: removed, reclaimed and onRemoved (nil-able; the
// engine credits the tenant charged for the chunk) cover only what this
// sweep deleted.
func (cs *ChunkStore) Sweep(addrs []string, skip func(addr string) bool, onRemoved func(addr string, size int64)) (removed int, reclaimed int64, err error) {
	for _, addr := range addrs {
		if skip != nil && skip(addr) {
			continue
		}
		key, kerr := cs.key(addr)
		if kerr != nil {
			continue
		}
		info, derr := cs.b.Stat(key)
		if !errors.Is(derr, ErrNotFound) {
			derr = cs.b.Delete(key)
		}
		cs.unmarkVerified(addr)
		if errors.Is(derr, ErrNotFound) {
			continue // gone before this sweep got to it
		} else if derr != nil {
			return removed, reclaimed, fmt.Errorf("storage: gc remove: %w", derr)
		}
		removed++
		reclaimed += info.Size // zero when the Stat failed
		if onRemoved != nil {
			onRemoved(addr, info.Size)
		}
	}
	return removed, reclaimed, nil
}

// OrphanCollector is an optional Backend extension for backends whose
// chunk namespace is shared beyond this process — a remote store serving
// many clients. Local orphan collection is unsafe there: this process's
// pin table cannot see other clients' in-flight saves, so the sweep must
// run where all references and pins are visible (the server). Composite
// backends forward toward their base; ok=false means the backend has no
// authoritative collector and the caller may sweep locally.
type OrphanCollector interface {
	CollectOrphans() (removed int, reclaimed int64, ok bool, err error)
}

// TryCollectOrphans delegates orphan collection to b when it implements
// OrphanCollector, and reports ok=false otherwise.
func TryCollectOrphans(b Backend) (removed int, reclaimed int64, ok bool, err error) {
	if oc := Caps(b).Orphans; oc != nil {
		return oc.CollectOrphans()
	}
	return 0, 0, false, nil
}

// TotalBytes returns the summed size of all chunks.
func (cs *ChunkStore) TotalBytes() (int64, error) {
	addrs, err := cs.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, addr := range addrs {
		key, _ := cs.key(addr)
		if info, err := cs.b.Stat(key); err == nil {
			total += info.Size
		}
	}
	return total, nil
}
