package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/storage"
)

// ArchiveBackend copies every snapshot in src into a content-addressed
// chunk store and writes a manifest mapping snapshot names to chunk
// addresses. Identical content across archives (shared anchors, repeated
// snapshots of converged runs) is stored once — the dedup that makes
// keeping many runs' checkpoint histories cheap. Chunked snapshots are
// materialized into self-contained monolithic files on the way in, so an
// archive never depends on the source's chunk namespace; on a
// storage.Tiered source every snapshot is archived from whatever level it
// lives on.
//
// The manifest is written atomically; snapshots carry their own integrity
// (whole-file SHA-256), and the chunk store re-verifies content addresses
// on read, so the archive chain is verifiable end to end.
func ArchiveBackend(src storage.Backend, cs *storage.ChunkStore, manifestPath string) (archived int, err error) {
	refs, err := listSnapshots(src)
	if err != nil {
		return 0, fmt.Errorf("core: archive list: %w", err)
	}
	view := newSnapshotView(src, RestoreOptions{})
	var manifest strings.Builder
	manifest.WriteString("QCKPT-MANIFEST1\n")
	for _, ref := range refs { // seq order is name order: the manifest comes out sorted
		key := ref.key
		data, err := src.Get(key)
		if err != nil {
			return archived, fmt.Errorf("core: archive read %s: %w", key, err)
		}
		// Refuse to archive corrupt snapshots: the archive is a recovery
		// artifact and must not launder damage.
		h, text, err := DecodeSnapshotFile(data)
		if err != nil {
			return archived, fmt.Errorf("core: refusing to archive %s: %w", key, err)
		}
		if h.Kind.Chunked() {
			// Resolve the manifest to its body and re-encode monolithic.
			info, err := decodeChunkManifest(text)
			if err != nil {
				return archived, fmt.Errorf("core: refusing to archive %s: %w", key, err)
			}
			body, err := view.assemble(info)
			if err != nil {
				return archived, fmt.Errorf("core: refusing to archive %s: %w", key, err)
			}
			h.Kind = h.Kind.Base()
			data, err = EncodeSnapshotFile(h, body.b)
			body.release()
			if err != nil {
				return archived, err
			}
		}
		addr := storage.Hash(data)
		if _, err := cs.Ingest(addr, data, storage.ClassArchive); err != nil {
			return archived, err
		}
		fmt.Fprintf(&manifest, "%s %s\n", addr, key)
		archived++
	}
	if err := storage.AtomicWriteFile(manifestPath, []byte(manifest.String()), 0o644); err != nil {
		return archived, err
	}
	return archived, nil
}

// Unarchive materializes an archived checkpoint directory from a manifest
// and chunk store into destDir (created if missing). Restored files are
// written atomically and re-verified.
func Unarchive(manifestPath string, cs *storage.ChunkStore, destDir string) (restored int, err error) {
	f, err := os.Open(manifestPath)
	if err != nil {
		return 0, fmt.Errorf("core: open manifest: %w", err)
	}
	defer f.Close()
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return 0, fmt.Errorf("core: create dest dir: %w", err)
	}
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "QCKPT-MANIFEST1" {
		return 0, fmt.Errorf("core: bad manifest header")
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 2)
		if len(parts) != 2 {
			return restored, fmt.Errorf("core: malformed manifest line %q", line)
		}
		addr, name := parts[0], parts[1]
		if _, _, ok := parseSnapshotName(name); !ok {
			return restored, fmt.Errorf("core: manifest names foreign file %q", name)
		}
		data, err := cs.Get(addr)
		if err != nil {
			return restored, fmt.Errorf("core: chunk for %s: %w", name, err)
		}
		if _, _, err := DecodeSnapshotFile(data); err != nil {
			return restored, fmt.Errorf("core: archived %s corrupt: %w", name, err)
		}
		if err := storage.AtomicWriteFile(filepath.Join(destDir, name), data, 0o644); err != nil {
			return restored, err
		}
		restored++
	}
	if err := sc.Err(); err != nil {
		return restored, err
	}
	return restored, nil
}
