package storage

import "strings"

// The capability API: the optional Backend extensions (RangeReader,
// BatchReader, AddressedIngester, ClassWriter, KeyedClassIngester,
// OrphanCollector, OccupancyReporter) are probed in one place. Callers
// switch on one CapSet — each field the typed handle to call through, nil
// when unsupported — and a wrapper declares what it forwards once, by
// implementing CapsReporter with the one rule, ForwardCaps (forward.go).

// CapSet is a backend's capability set. Fields hold the interface to call
// through (non-nil = supported); Replication is a value because it carries
// quorum parameters, with Replicas > 0 meaning "this store is replicated".
type CapSet struct {
	// Range serves cheap partial reads (recovery header scans).
	Range RangeReader
	// Batch serves positional multi-object reads (restore prefetch).
	Batch BatchReader
	// Ingest owns the addressed dedup decision (chunk stores, remotes).
	Ingest AddressedIngester
	// ClassWrite routes writes by class (tiered placement).
	ClassWrite ClassWriter
	// ClassIngest is the classed variant of Ingest.
	ClassIngest KeyedClassIngester
	// Orphans runs store-side orphan-chunk collection.
	Orphans OrphanCollector
	// Occupancy reports per-level residency (tiered stores).
	Occupancy OccupancyReporter
	// Replication carries the quorum parameters of a replicated store;
	// the zero value means unreplicated.
	Replication ReplicationInfo
}

// CapsReporter is implemented by composite backends to declare their
// forwarded capability set once, instead of having Caps re-probe every
// optional interface. The declared set must agree with what the backend
// does: storagetest's CapsAreHonest checks, on every backend the suite
// runs against, that each handle is the backend itself and that a
// declared classed write and batch read behave.
type CapsReporter interface {
	Caps() CapSet
}

// OccupancyReporter exposes per-level residency accounting; Tiered
// implements it and Replicated forwards it when its replicas are tiered.
type OccupancyReporter interface {
	Occupancy() ([]LevelOccupancy, error)
}

// ReplicationInfo describes a replicated store's quorum geometry for
// status surfaces and the wire capability handshake.
type ReplicationInfo struct {
	// Replicas is R, the copies each write fans out to (0 = unreplicated).
	Replicas int
	// WriteQuorum is W, the acks a write needs to succeed.
	WriteQuorum int
	// ReadQuorum is the replicas a mutable-key read consults.
	ReadQuorum int
	// Domains lists the failure-domain labels, one per replica.
	Domains []string
}

// Replicator is implemented by replication-aware backends (Replicated
// itself, and remotes proxying a replicated server).
type Replicator interface {
	ReplicationInfo() ReplicationInfo
}

// Caps probes b's capability set: a CapsReporter answers for itself (one
// declaration per wrapper), anything else is probed with one type assert
// per optional interface — the only place in the tree that still asserts
// them. The probe is allocation-free, keeping classed writes on the
// zero-alloc save path.
func Caps(b Backend) CapSet {
	if cr, ok := b.(CapsReporter); ok {
		return cr.Caps()
	}
	var c CapSet
	if rr, ok := b.(RangeReader); ok {
		c.Range = rr
	}
	if br, ok := b.(BatchReader); ok {
		c.Batch = br
	}
	if ai, ok := b.(AddressedIngester); ok {
		c.Ingest = ai
	}
	if cw, ok := b.(ClassWriter); ok {
		c.ClassWrite = cw
	}
	if ci, ok := b.(KeyedClassIngester); ok {
		c.ClassIngest = ci
	}
	if oc, ok := b.(OrphanCollector); ok {
		c.Orphans = oc
	}
	if or, ok := b.(OccupancyReporter); ok {
		c.Occupancy = or
	}
	if r, ok := b.(Replicator); ok {
		c.Replication = r.ReplicationInfo()
	}
	return c
}

// ChunkKeyAddr recognizes content-addressed chunk keys by shape — a final
// segment of 64 lowercase-hex characters fanned out under its own first
// two characters ("…/ab/ab12…ef") — and returns the embedded address.
// The shape is shared by the chunk store's layout, the wire protocol's
// chunk plane, and Replicated's read strategy (chunk bytes are
// self-verifying, so their reads take the first-success fast path).
func ChunkKeyAddr(key string) (addr string, ok bool) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return "", false
	}
	last := key[i+1:]
	if len(last) != 64 {
		return "", false
	}
	for j := 0; j < len(last); j++ {
		c := last[j]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	rest := key[:i]
	j := strings.LastIndexByte(rest, '/')
	fan := rest[j+1:]
	if fan != last[:2] {
		return "", false
	}
	return last, true
}
