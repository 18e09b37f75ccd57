package core

import (
	"fmt"

	"repro/internal/storage"
)

// CompactBackend rewrites the newest recoverable snapshot in b as a single
// self-contained full snapshot (appended with the next sequence number)
// and optionally deletes everything older. Use cases: archiving a run's
// final state, trimming long delta chains before copying a checkpoint
// directory to slower storage, and bounding recovery latency. Chunked
// snapshots compact to one monolithic full snapshot; chunks no longer
// referenced by any remaining manifest are collected.
//
// Compaction is crash-safe: the new full snapshot is written atomically
// before any deletion, so an interrupted compaction leaves the backend at
// least as recoverable as before. On a storage.Tiered backend the source
// snapshots are found at whatever level they live, the fresh anchor lands
// on the hot level, and deletion clears every level's copy.
func CompactBackend(b storage.Backend, deleteOld bool) (newKey string, removed int, err error) {
	state, _, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
	if err != nil {
		return "", 0, err
	}
	payload, err := EncodePayload(state)
	if err != nil {
		return "", 0, err
	}
	refs, err := listSnapshots(b)
	if err != nil {
		return "", 0, err
	}
	seq, err := nextSeq(refs)
	if err != nil {
		return "", 0, err
	}
	h := Header{
		Kind:        KindFull,
		Seq:         seq,
		Step:        state.Step,
		PayloadHash: PayloadHash(payload),
	}
	newKey = snapshotName(h.Seq, KindFull)
	data, err := EncodeSnapshotFile(h, payload)
	if err != nil {
		return "", 0, err
	}
	if err := storage.PutClass(b, newKey, data, storage.ClassManifest); err != nil {
		return "", 0, err
	}
	// Paranoia: verify the fresh anchor before deleting anything.
	if _, err := InspectSnapshot(b, newKey); err != nil {
		return "", 0, fmt.Errorf("core: compacted snapshot failed verification: %w", err)
	}
	if deleteOld {
		for _, ref := range refs { // listed before the fresh anchor was written
			if b.Delete(ref.key) == nil {
				removed++
			}
		}
		// Collect chunks orphaned by the deletions (no-op for purely
		// monolithic histories, whose chunk namespace is empty). Best-effort:
		// if the references cannot be read, nothing is deleted.
		if removed > 0 {
			CollectOrphanChunks(b)
		}
	}
	return newKey, removed, nil
}
