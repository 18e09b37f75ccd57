package storage

import "fmt"

// WriteClass labels what a write *is* — manifest, anchor chunk, delta
// chunk, archive bundle — so a tiered store can place it by role instead
// of treating every byte alike. Classes ride the write call as a plain
// int: no allocation on the save path, and backends that don't care
// simply never look at it.
type WriteClass int

const (
	// ClassDefault is "no opinion": placed wherever the store's default
	// rule puts unclassified writes (the hot level for Tiered).
	ClassDefault WriteClass = iota
	// ClassManifest is a checkpoint manifest — tiny, restore-critical,
	// read first on every recovery.
	ClassManifest
	// ClassAnchorChunk is a chunk of a full (anchor) checkpoint — the
	// base every restore replays from.
	ClassAnchorChunk
	// ClassDeltaChunk is a chunk of a delta checkpoint — a tail segment
	// that is only read when restoring to that exact step.
	ClassDeltaChunk
	// ClassArchive is a compacted archive bundle — cold by construction.
	ClassArchive

	numWriteClasses
)

// String names the class for stats tables and logs.
func (c WriteClass) String() string {
	switch c {
	case ClassDefault:
		return "default"
	case ClassManifest:
		return "manifest"
	case ClassAnchorChunk:
		return "anchor"
	case ClassDeltaChunk:
		return "delta"
	case ClassArchive:
		return "archive"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseWriteClass maps a class name (the String form) back to its
// WriteClass — the wire protocol sends classes by name.
func ParseWriteClass(name string) (WriteClass, error) {
	switch name {
	case "", "default":
		return ClassDefault, nil
	case "manifest":
		return ClassManifest, nil
	case "anchor":
		return ClassAnchorChunk, nil
	case "delta":
		return ClassDeltaChunk, nil
	case "archive":
		return ClassArchive, nil
	}
	return ClassDefault, fmt.Errorf("storage: unknown write class %q", name)
}

// ClassWriter is the optional Backend extension for class-aware writes.
// A backend implementing it may route the write by class; one that
// doesn't is driven through plain Put by the PutClass helper, so callers
// tag unconditionally and placement stays a store-side decision.
type ClassWriter interface {
	PutClass(key string, data []byte, class WriteClass) error
}

// PutClass writes through b's ClassWriter when its capability set
// declares one and falls back to Put otherwise. The capability probe is
// allocation-free, keeping the tagged save path eligible for the
// zero-alloc encode guarantee.
func PutClass(b Backend, key string, data []byte, class WriteClass) error {
	if cw := Caps(b).ClassWrite; cw != nil {
		return cw.PutClass(key, data, class)
	}
	return b.Put(key, data)
}

// KeyedClassIngester is the class-aware variant of AddressedIngester: an
// ingest that carries both the content address (for dedup) and the write
// class (for placement).
type KeyedClassIngester interface {
	IngestKeyedClass(key, addr string, data []byte, class WriteClass) (written int, ok bool, err error)
}

// TryIngestKeyedClass delegates to b's KeyedClassIngester if present, else
// reports ok=false: the caller runs the generic protocol itself.
func TryIngestKeyedClass(b Backend, key, addr string, data []byte, class WriteClass) (int, bool, error) {
	if ci := Caps(b).ClassIngest; ci != nil {
		return ci.IngestKeyedClass(key, addr, data, class)
	}
	return 0, false, nil
}

// PlacementPolicy maps write classes to tier level names. The zero value
// places everything hot — exactly the pre-policy behaviour — so a policy
// is pure opt-in. An empty string for a class means "the hot level".
type PlacementPolicy struct {
	// Manifest, Anchor, Delta, Archive name the level each class lands
	// on. Names must match the Tiered level names ("" = hot).
	Manifest string
	Anchor   string
	Delta    string
	Archive  string
}

// levelFor returns the configured level name for class ("" = hot).
func (p PlacementPolicy) levelFor(class WriteClass) string {
	switch class {
	case ClassManifest:
		return p.Manifest
	case ClassAnchorChunk:
		return p.Anchor
	case ClassDeltaChunk:
		return p.Delta
	case ClassArchive:
		return p.Archive
	}
	return ""
}

// DeltaToWarm is the paper's recommended policy for a hot/warm pair:
// manifests and anchor chunks pinned hot (restore-critical), delta tails
// written straight to warm, archives to the coldest named level.
func DeltaToWarm(warm string) PlacementPolicy {
	return PlacementPolicy{Delta: warm, Archive: warm}
}
