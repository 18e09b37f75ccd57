// Package api is the transport-agnostic surface of a checkpoint service:
// the operations a remote client needs to save, restore, and garbage-
// collect through a qckpt store, extracted from core.Service so the HTTP
// server (internal/server) and any future transport speak to one
// interface instead of reaching into the engine.
//
// The surface is deliberately sessionless. Snapshot sequencing, delta
// chains and retention stay in the client's core.Manager — the server
// never opens jobs on a client's behalf — so the protocol reduces to an
// object plane (manifests and listings), a chunk plane (the address-first
// dedup handshake plus verified ingest), and service-wide operations
// (job discovery, orphan collection). Uploaded-but-uncommitted chunks are
// protected from GC by time-bounded leases instead of per-connection
// state: a client that dies mid-upload simply lets its leases lapse, and
// the next collection reaps what it left behind.
//
// NewLocalOptions is the one constructor of the in-process implementation
// (Local); the zero LocalOptions reads straight through to the backend.
package api

import (
	"time"

	"repro/internal/storage"
)

// Caps describes the service's backing store to clients: the remote
// backend proxies these as its own storage.Capabilities, and maps the
// capability booleans onto its storage.CapSet so callers above a remote
// store switch on the same probe they use locally.
type Caps struct {
	// Name of the backing store ("local", "mem", "tiered", …).
	Name string `json:"name"`
	// Atomic, Persistent, Modeled mirror storage.Capabilities.
	Atomic     bool `json:"atomic"`
	Persistent bool `json:"persistent"`
	Modeled    bool `json:"modeled"`
	// The capability set of the store behind the service — what
	// storage.Caps reports for it. Batch and Range are read fast paths;
	// ClassedWrites means write classes reach the store's placement;
	// AddressedIngest and OrphanCollect describe the chunk plane (always
	// true for a real service, which fronts a chunk store, but reported
	// from the store so a degraded deployment is visible).
	Batch           bool `json:"batch,omitempty"`
	Range           bool `json:"range,omitempty"`
	ClassedWrites   bool `json:"classed_writes,omitempty"`
	AddressedIngest bool `json:"addressed_ingest,omitempty"`
	OrphanCollect   bool `json:"orphan_collect,omitempty"`
	// Replication geometry of the backing store; zero Replicas means the
	// store is not replicated.
	Replicas    int      `json:"replicas,omitempty"`
	WriteQuorum int      `json:"write_quorum,omitempty"`
	ReadQuorum  int      `json:"read_quorum,omitempty"`
	Domains     []string `json:"domains,omitempty"`
}

// Stats are the service-side counters the T8 harness and operators read:
// how much the address-first handshake saved, and how much traffic the
// object plane carried.
type Stats struct {
	// HasQueries and HasHits count address-existence probes; a hit is a
	// chunk the client never had to upload.
	HasQueries int64 `json:"has_queries"`
	HasHits    int64 `json:"has_hits"`
	// ChunksIngested counts chunk uploads that reached the store;
	// ChunkDedupHits are uploads resolved against a resident copy with no
	// new bytes written. ChunkBytesOffered is the payload of every upload,
	// ChunkBytesWritten only what actually hit the store.
	ChunksIngested    int64 `json:"chunks_ingested"`
	ChunkDedupHits    int64 `json:"chunk_dedup_hits"`
	ChunkBytesOffered int64 `json:"chunk_bytes_offered"`
	ChunkBytesWritten int64 `json:"chunk_bytes_written"`
	// ManifestsCommitted and ManifestBytes count object-plane commits.
	ManifestsCommitted int64 `json:"manifests_committed"`
	ManifestBytes      int64 `json:"manifest_bytes"`
	// BytesServed is the payload of every read (Get, range, batch).
	BytesServed int64 `json:"bytes_served"`
	// OriginHits, OriginMisses and OriginCoalesced report the server's
	// single-flight origin read cache (zero when it is disabled): hits
	// served from memory, misses that paid a backend fetch, and readers
	// that joined another reader's in-flight fetch — the gang-restore
	// coalescing win.
	OriginHits      int64 `json:"origin_hits"`
	OriginMisses    int64 `json:"origin_misses"`
	OriginCoalesced int64 `json:"origin_coalesced"`
	// ActiveLeases is the number of unexpired upload leases.
	ActiveLeases int `json:"active_leases"`
	// Throttled counts requests refused with 429 by admission control.
	// Filled by the transport layer; a Local service reports 0.
	Throttled int64 `json:"throttled"`
	// Tenants maps tenant ID to its QoS usage; nil when the service has
	// no per-tenant QoS configured.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Levels reports the tiered store's resident occupancy per level,
	// broken down by write class — the "did the delta tail land warm?"
	// evidence. Empty for untiered stores.
	Levels []LevelStats `json:"levels,omitempty"`
}

// LevelStats is one tier level's resident footprint as served by
// /v1/stats.
type LevelStats struct {
	Name    string       `json:"name"`
	Objects int          `json:"objects"`
	Bytes   int64        `json:"bytes"`
	ByClass []ClassStats `json:"by_class,omitempty"`
}

// ClassStats is one write class's share of a level.
type ClassStats struct {
	Class   string `json:"class"`
	Objects int    `json:"objects"`
	Bytes   int64  `json:"bytes"`
}

// TenantStats is one tenant's QoS accounting as served by /v1/stats.
type TenantStats struct {
	// QuotaBytes and RateBytesPerSec echo the tenant's configured limits
	// (0 = unlimited).
	QuotaBytes      int64 `json:"quota_bytes,omitempty"`
	RateBytesPerSec int64 `json:"rate_bytes_per_sec,omitempty"`
	// ChargedBytes is the tenant's current footprint against its quota.
	ChargedBytes int64 `json:"charged_bytes"`
	// Throttled counts QoS throttle events (local pacing sleeps and
	// server 429s); ThrottleMs is the total delay imposed.
	Throttled  int64 `json:"throttled"`
	ThrottleMs int64 `json:"throttle_ms"`
}

// Service is the transport-agnostic checkpoint service and the whole
// contract a transport codes against: the plain object and chunk planes
// below plus the two embedded halves. All methods are safe for concurrent
// use. Key and range semantics are exactly the storage.Backend contract
// (ErrNotFound for absent keys, ValidateKey rules, sorted listings,
// positional batch results), so a transport can re-expose the service as
// a Backend without translation.
type Service interface {
	ClassedService
	QoSService

	// Caps reports the backing store's identity and guarantees.
	Caps() Caps

	// CommitManifest is CommitManifestClass with storage.ClassDefault.
	CommitManifest(key string, data []byte) error
	// GetObject, GetObjectRange, GetObjects, StatObject, ListObjects and
	// DeleteObject are the Backend read/delete plane over the store root.
	GetObject(key string) ([]byte, error)
	GetObjectRange(key string, off, n int64) ([]byte, error)
	GetObjects(keys []string) ([][]byte, []error)
	StatObject(key string) (storage.ObjectInfo, error)
	ListObjects(prefix string) ([]string, error)
	DeleteObject(key string) error

	// HasAddresses is the address-first dedup round: for each chunk key,
	// report whether its bytes are already resident. Every address probed
	// is lease-pinned whatever the answer, so a hit the client is about to
	// reference in a manifest cannot be collected out from under it. A key
	// CanonicalChunkAddr does not accept is refused ("not a chunk key").
	HasAddresses(keys []string) ([]bool, error)
	// IngestChunk is IngestChunkClass with storage.ClassDefault.
	IngestChunk(key string, data []byte) (written int, err error)

	// Jobs lists the job namespaces present in the store.
	Jobs() ([]string, error)
	// CollectOrphans removes chunks no manifest references and no lease or
	// local pin protects.
	CollectOrphans() (removed int, reclaimed int64, err error)
	// Stats snapshots the service counters.
	Stats() Stats
}

// ClassedService is the write half of Service: every commit and chunk
// upload carries the storage.WriteClass the client's manager assigned,
// so a tiered backend places the write by role. The name survives as its
// own interface only because bench's span wrapper asserts it.
type ClassedService interface {
	// CommitManifestClass atomically commits an object — a snapshot
	// manifest, or any other non-chunk object — at key. Commits are NOT
	// idempotent from the transport's point of view: a client must never
	// blindly resend one (see the remote client's verify-then-retry
	// protocol).
	CommitManifestClass(key string, data []byte, class storage.WriteClass) error
	// IngestChunkClass stores a chunk upload at a canonical chunk key
	// after verifying the payload hashes to the key's address, lease-
	// pinning the address. It returns the bytes newly written — 0 on a
	// server-side dedup hit. Idempotent: re-uploading identical content is
	// always safe.
	IngestChunkClass(key string, data []byte, class storage.WriteClass) (written int, err error)
}

// QoSService is the per-tenant admission and quota half of Service (its
// own name for the same reason as ClassedService): Admit is consulted
// before accepting n bytes from tenant (refusals name a retry delay and a
// reason, "quota" or "rate"); Charge bills bytes that actually landed;
// ChargeChunk additionally records the tenant as the canonical chunk's
// owner so the orphan sweep can credit the bytes back; Credit hands bytes
// back when the tenant deletes an object (remote retention GC), keeping
// the quota a measure of footprint rather than lifetime traffic. A
// service with no tenants configured admits everything.
type QoSService interface {
	QoSAdmit(tenant string, n int64) (retryAfter time.Duration, reason string, ok bool)
	QoSCharge(tenant string, n int64)
	QoSChargeChunk(tenant, addr string, n int64)
	QoSCredit(tenant string, n int64)
}
