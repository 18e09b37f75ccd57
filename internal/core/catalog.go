package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// The snapshot catalog: the one place that knows the store's key grammar
// and how to read what a snapshot object references (DESIGN.md §2, "Store
// layout"). Every scanner — sequence continuation, retention, lifecycle,
// the GC reference scan, the recovery index, compaction, archiving, the chain
// prefetcher — is a caller of the functions below and states only its own
// error policy.
//
//	ckpt-<seq, ≥12 decimal digits>-<full|delta>.qckpt   snapshot objects
//	chunks/<addr[:2]>/<addr>                            content-addressed chunks
//	jobs/<id>/ckpt-…                                    one job's snapshot objects (service.go)

// snapshotKeyPrefix prefixes every snapshot object key; listSnapshots
// lists by it so backends can skip the chunk namespace entirely.
const snapshotKeyPrefix = "ckpt-"

// snapshotRef is a parsed snapshot object key. kind is the base kind
// (KindFull or KindDelta): whether the body is chunked is in the header.
// size is the object's bytes where the manager that committed it recorded
// them (what retention credits its tenant), zero from a listing.
type snapshotRef struct {
	key  string
	seq  uint64
	kind SnapshotKind
	size int64
}

// snapshotName builds the object key for a sequence number and kind.
func snapshotName(seq uint64, kind SnapshotKind) string {
	return fmt.Sprintf("%s%012d-%s.qckpt", snapshotKeyPrefix, seq, kind.Base())
}

// parseSnapshotName extracts (seq, base kind) from an object key. It
// accepts exactly the names snapshotName produces: anything else under the
// "ckpt-" prefix ("ckpt-0x10-full.qckpt", a short or signed or spaced
// sequence number) is a foreign object that no scanner may adopt, count or
// delete. Keys arrive from a peer's List, so this never panics.
func parseSnapshotName(name string) (seq uint64, kind SnapshotKind, ok bool) {
	digits, suffix, _ := strings.Cut(strings.TrimPrefix(name, snapshotKeyPrefix), "-")
	switch suffix {
	case "full.qckpt":
		kind = KindFull
	case "delta.qckpt":
		kind = KindDelta
	default:
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || snapshotName(seq, kind) != name {
		return 0, 0, false
	}
	return seq, kind, true
}

// ChunkKey maps a chunk address (64 hex digits) to its object key in a
// checkpoint backend.
func ChunkKey(addr string) string {
	return ChunkPrefix + "/" + addr[:2] + "/" + addr
}

// listSnapshots is the store's one namespace scan: the snapshot objects in
// b, foreign keys dropped, oldest first.
func listSnapshots(b storage.Backend) ([]snapshotRef, error) {
	keys, err := b.List(snapshotKeyPrefix)
	if err != nil {
		return nil, err
	}
	refs := make([]snapshotRef, 0, len(keys))
	for _, k := range keys {
		if seq, kind, ok := parseSnapshotName(k); ok {
			refs = append(refs, snapshotRef{key: k, seq: seq, kind: kind})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
	return refs, nil
}

// nextSeq is the sequence number after every snapshot in refs (seq-sorted),
// so a successor never overwrites a predecessor's objects. A store whose
// newest name holds the last sequence number has no successor: wrapping to
// 0 would start over on top of the oldest chain.
func nextSeq(refs []snapshotRef) (uint64, error) {
	if len(refs) == 0 {
		return 0, nil
	}
	last := refs[len(refs)-1].seq
	if last == math.MaxUint64 {
		return 0, errors.New("core: sequence space exhausted")
	}
	return last + 1, nil
}

// anchorChains groups seq-sorted refs into anchor chains from names alone:
// a full snapshot opens a chain and the deltas up to the next full belong
// to it. Deltas older than every anchor form a leading chain of their own,
// the only one not headed by a full. Retention and lifecycle both cut the
// store along these chains; recovery does not — it follows BaseHash links.
func anchorChains(refs []snapshotRef) [][]snapshotRef {
	var chains [][]snapshotRef
	start := 0
	for i, r := range refs {
		if r.kind == KindFull && i > start {
			chains = append(chains, refs[start:i])
			start = i
		}
	}
	if start < len(refs) {
		chains = append(chains, refs[start:])
	}
	return chains
}

// probeHeader reads and parses the fixed-size header of the snapshot object
// at key without fetching or verifying its body. A parse failure wraps
// ErrCorrupt; any other error is the backend's.
func probeHeader(b storage.Backend, key string) (Header, error) {
	buf, err := storage.GetRange(b, key, 0, headerSize)
	if err != nil {
		return Header{}, err
	}
	return parseHeaderBytes(buf)
}

// decodeManifestObject verifies a snapshot object's bytes and returns its
// header, its still-compressed body (aliasing data) and — for the chunked
// kinds, whose body is a chunk manifest — the parsed manifest, inflated
// through pooled scratch that is back in its pool on return. A monolithic
// body is left for the caller to inflate where it is going. It does no I/O
// and is pure, so a view remembers its result (recovery.go).
func decodeManifestObject(data []byte) (Header, []byte, chunkManifestInfo, error) {
	var info chunkManifestInfo
	h, comp, err := checkSnapshotFile(data)
	if err == nil && h.Kind.Chunked() {
		var text []byte
		var sp *[]byte
		if text, sp, err = inflateScratch(comp, -1); err == nil {
			info, err = decodeChunkManifest(text)
			putScratch(sp)
		}
	}
	return h, comp, info, err
}

// manifestAddrs returns the chunk addresses the snapshot object at key
// references, in manifest order. Monolithic snapshots are recognised on a
// header probe, without reading their bodies, and reference nothing; so
// does a torn or corrupt object — it is unrecoverable already, and nothing
// it names is worth keeping on its account. The error is always the
// backend's (a failed read, storage.ErrNotFound for a key deleted since it
// was listed): what to forgive is the caller's policy.
func manifestAddrs(b storage.Backend, key string) ([]string, error) {
	h, err := probeHeader(b, key)
	switch {
	case errors.Is(err, ErrCorrupt):
		return nil, nil
	case err != nil:
		return nil, err
	case !h.Kind.Chunked():
		return nil, nil
	}
	data, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	_, _, info, err := decodeManifestObject(data)
	if err != nil {
		return nil, nil
	}
	return info.addrs, nil
}
