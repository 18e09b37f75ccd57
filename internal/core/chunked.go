package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Chunked snapshots split the body (payload or delta bytes) into chunks —
// at fixed ChunkBytes offsets, or at content-defined cutpoints (cdc.go) —
// frame each chunk independently (compressed, or raw when a sample's
// byte histogram says an order-0 code would save under a tenth), and store
// the framed chunks content-addressed in the backend's chunk store under
// ChunkPrefix/. The snapshot file itself shrinks to a manifest naming the
// chunk addresses in order; it is committed with the same atomic Put as a
// monolithic snapshot, and only after every chunk it references is durable.
// A crash therefore leaves at worst orphan chunks (collected by retention
// GC or Compact), never a manifest pointing at missing data.
//
// Dedup falls out of content addressing: between consecutive snapshots of
// a slowly moving training state most chunks are byte-identical (for delta
// bodies, mostly-zero), so re-saving them is a Stat, not a write — and the
// incremental save engine (DESIGN.md §9) skips even that for chunks whose
// bytes match the retained previous body of the same kind.
//
// Manifest body format (this body is itself flate-compressed and
// integrity-protected by the snapshot file framing):
//
//	QCKPT-CHUNKS2\n
//	<rawLen>\n          total body length in bytes before chunking
//	<addr>\n            one 64-hex chunk address per line, in order
//	...
//
// Version 3 manifests carry one extra line naming the content-defined
// chunker and its parameters, so the boundaries are reproducible by any
// process (the params alone determine the cutpoints — see cdc.go):
//
//	QCKPT-CHUNKS3\n
//	<rawLen>\n
//	<gearID> <min> <avg> <max>\n
//	<addr>\n
//	...
//
// The chunks themselves are identical self-framed version-2 frames in
// both: restore, GC and summarization never need the chunker — they walk
// the address list the same way whatever cut the boundaries. These are the
// two formats with a writer and the only two read: a QCKPT-CHUNKS1
// manifest (bare-flate chunks, written only by PRs 1–3) is an unknown
// magic like any other — ErrCorrupt, skipped by recovery, named by
// VerifyBackend.

// ChunkPrefix is the key namespace inside a Manager's backend that holds
// the content-addressed chunks of chunked snapshots.
const ChunkPrefix = "chunks"

// DefaultChunkBytes is a sensible chunk size for callers that want chunked
// snapshots without tuning (Options{ChunkBytes: DefaultChunkBytes}): large
// enough that manifest overhead is negligible, small enough that a slowly
// drifting state deduplicates most of its chunks between saves.
const DefaultChunkBytes = 256 << 10

// Bounds on Options.ChunkBytes, enforced by NewManager and
// Service.OpenJob. Below the floor the 64-hex manifest line per chunk
// becomes a meaningful fraction of the data itself (at 256-byte chunks
// the manifest alone is a quarter of the body) and per-chunk framing
// overhead dominates; above the ceiling a "chunk" is a monolithic
// snapshot in disguise and dedup granularity is gone. Both are
// misconfigurations that used to produce silently degenerate manifests.
const (
	MinChunkBytes = 4 << 10
	MaxChunkBytes = 64 << 20
)

const (
	chunkManifestMagic   = "QCKPT-CHUNKS2"
	chunkManifestMagicV3 = "QCKPT-CHUNKS3"
)

// Chunk frame format — the bytes actually stored in the chunk store for a
// version-2 manifest's chunks:
//
//	flag    uint8     0 = raw body, 1 = flate-compressed body
//	rawLen  uint32 LE chunk length before framing
//	body    [..]byte  raw bytes (flag 0) or flate stream (flag 1)
//
// The flag is what makes per-chunk compression adaptive: appendChunkFrame
// reads the byte histogram of a sample of the chunk and stores chunks an
// order-0 code would barely shrink raw, skipping flate entirely (an optimal
// byte code saves 5–7 % of dense float64 mantissas, and deflating them ends
// in stored blocks after stalling the save). The recorded rawLen lets the
// restore path size each chunk's output exactly instead of growing through
// io.ReadAll.
const (
	chunkFrameRaw    = 0x00
	chunkFrameFlate  = 0x01
	chunkFrameHeader = 5
)

// chunkProbeBytes is the sample size of the adaptive-compression probe;
// chunks at most twice this size skip the probe and compress outright
// (with a raw fallback if flate failed to shrink them).
const chunkProbeBytes = 4 << 10

// A probed chunk is compressed when an optimal order-0 code over its
// sample would save at least 1/chunkProbeMinSaving of the sample's bits.
const chunkProbeMinSaving = 10

// appendChunkFrame appends the frame of piece to dst. The encoding is
// deterministic (pooled flate writers reset to a pristine state, and the
// probe decision is an integer function of the bytes), so identical pieces
// frame to identical bytes and content-addressed dedup is preserved.
func appendChunkFrame(dst, piece []byte) ([]byte, error) {
	head := len(dst)
	dst = append(dst, chunkFrameRaw)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(piece)))
	bodyStart := len(dst)
	if len(piece) <= 2*chunkProbeBytes || worthCompressing(piece[:chunkProbeBytes]) {
		var err error
		if dst, err = compressAppend(dst, piece); err != nil {
			return nil, err
		}
		if len(dst)-bodyStart < len(piece) {
			dst[head] = chunkFrameFlate
			return dst, nil
		}
		// flate did not shrink the chunk: store it raw, so a frame never
		// exceeds the chunk by more than its 5-byte header.
		dst = dst[:bodyStart]
	}
	return append(dst, piece...), nil
}

// worthCompressing is the probe: whether an optimal order-0 prefix code over
// sample would save at least 1/chunkProbeMinSaving of its bits. It reads no
// more than the byte histogram — a trial deflate of the same sample costs
// ten times as much, most of it the per-block Huffman-tree build.
func worthCompressing(sample []byte) bool {
	return huffmanBits(sample)*chunkProbeMinSaving <= 8*len(sample)*(chunkProbeMinSaving-1)
}

// huffmanBits is the length in bits of sample under an optimal prefix code
// for its byte histogram, code table not counted: the sum of the internal
// node weights of a Huffman tree, built by the two-queue merge over the
// sorted symbol counts (merged weights come out in order, so the second
// queue needs no heap). One distinct symbol costs 0 bits.
func huffmanBits(sample []byte) int {
	var hist, node [256]int
	for _, b := range sample {
		hist[b]++
	}
	slices.Sort(hist[:])
	first, _ := slices.BinarySearch(hist[:], 1)
	leaf := hist[first:] // the nonzero counts, ascending
	bits, li, ni := 0, 0, 0
	for nn := 0; nn < len(leaf)-1; nn++ {
		w := 0
		for range 2 {
			if li < len(leaf) && (ni == nn || leaf[li] <= node[ni]) {
				w += leaf[li]
				li++
			} else {
				w += node[ni]
				ni++
			}
		}
		node[nn] = w
		bits += w
	}
	return bits
}

// decodeChunkFrame reverses appendChunkFrame. A raw chunk's piece aliases
// frame, so callers must not retain it past the frame's lifetime; a
// compressed chunk inflates, to exactly the recorded raw length, into pooled
// scratch that comes back beside the piece (nil for a raw chunk) for the
// caller to putScratch at the piece's last use. The frame may be unchecked
// bytes: a recorded length above limit is refused before it sizes a buffer.
func decodeChunkFrame(frame []byte, limit int) (piece []byte, scratch *[]byte, err error) {
	if len(frame) < chunkFrameHeader {
		return nil, nil, fmt.Errorf("%w: chunk frame too short (%d bytes)", ErrCorrupt, len(frame))
	}
	rawLen := int(binary.LittleEndian.Uint32(frame[1:]))
	if rawLen > min(limit, MaxChunkBytes) {
		return nil, nil, fmt.Errorf("%w: chunk frame claims %d bytes, more than its snapshot holds", ErrCorrupt, rawLen)
	}
	body := frame[chunkFrameHeader:]
	switch frame[0] {
	case chunkFrameRaw:
		if len(body) != rawLen {
			return nil, nil, fmt.Errorf("%w: raw chunk %d bytes, frame says %d", ErrCorrupt, len(body), rawLen)
		}
		return body, nil, nil
	case chunkFrameFlate:
		return inflateScratch(body, rawLen)
	}
	return nil, nil, fmt.Errorf("%w: unknown chunk frame flag %#x", ErrCorrupt, frame[0])
}

// appendChunkManifest appends a manifest body to dst (the save path runs
// it on pooled scratch). A fixed-size rule (fixedParams, or the zero
// cdcParams) writes CHUNKS2; anything else writes CHUNKS3, the same body
// plus the chunker parameter line that makes content-defined boundaries
// reproducible anywhere.
func appendChunkManifest(dst []byte, rawLen int, p cdcParams, addrs []string) []byte {
	cdc, magic := !p.fixed(), chunkManifestMagic
	if cdc {
		magic = chunkManifestMagicV3
	}
	dst = append(dst, magic...)
	dst = append(dst, '\n')
	dst = strconv.AppendInt(dst, int64(rawLen), 10)
	dst = append(dst, '\n')
	if cdc {
		dst = append(dst, cdcGearID...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(p.minSize), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(p.normSize), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(p.maxSize), 10)
		dst = append(dst, '\n')
	}
	for _, a := range addrs {
		dst = append(dst, a...)
		dst = append(dst, '\n')
	}
	return dst
}

// chunkManifestInfo is the parsed form of a chunk manifest body of either
// version. Restore, GC and summarization read only rawLen/addrs — they are
// format-agnostic because chunks are self-framed; the chunker fields exist
// for tooling and for verifying chunking compatibility.
type chunkManifestInfo struct {
	rawLen  int
	addrs   []string
	cdc     bool      // content-defined boundaries (CHUNKS3)
	chunker string    // gear/algorithm ID from the params line (CHUNKS3)
	params  cdcParams // min/norm/max from the params line (CHUNKS3)
}

// decodeChunkManifest parses a manifest body of either version in place: one
// copy of the text, whose substrings the addresses are, in a slice sized once.
func decodeChunkManifest(data []byte) (chunkManifestInfo, error) {
	var info chunkManifestInfo
	line, rest, more := strings.Cut(string(data), "\n")
	if !more {
		return info, fmt.Errorf("%w: bad chunk manifest header", ErrCorrupt)
	}
	switch line {
	case chunkManifestMagic:
	case chunkManifestMagicV3:
		info.cdc = true
	default:
		return info, fmt.Errorf("%w: bad chunk manifest header", ErrCorrupt)
	}
	line, rest, more = strings.Cut(rest, "\n")
	rawLen, err := strconv.Atoi(line)
	if err != nil || rawLen < 0 {
		return info, fmt.Errorf("%w: bad chunk manifest length %q", ErrCorrupt, line)
	}
	info.rawLen = rawLen
	if info.cdc {
		if !more {
			return info, fmt.Errorf("%w: CHUNKS3 manifest missing chunker line", ErrCorrupt)
		}
		line, rest, _ = strings.Cut(rest, "\n")
		f := strings.Fields(line)
		if len(f) != 4 {
			return info, fmt.Errorf("%w: bad chunker line %q", ErrCorrupt, line)
		}
		info.chunker = f[0]
		sizes := [3]int{}
		for i, s := range f[1:] {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				return info, fmt.Errorf("%w: bad chunker line %q", ErrCorrupt, line)
			}
			sizes[i] = v
		}
		if sizes[0] > sizes[1] || sizes[1] > sizes[2] {
			return info, fmt.Errorf("%w: bad chunker bounds %q", ErrCorrupt, line)
		}
		info.params = cdcParams{minSize: sizes[0], normSize: sizes[1], maxSize: sizes[2]}
	}
	info.addrs = make([]string, 0, strings.Count(rest, "\n"))
	for rest != "" {
		if line, rest, _ = strings.Cut(rest, "\n"); line == "" {
			continue
		}
		if len(line) != 64 {
			return info, fmt.Errorf("%w: malformed chunk address %q", ErrCorrupt, line)
		}
		info.addrs = append(info.addrs, line)
	}
	// No chunk exceeds MaxChunkBytes, so a larger total is a lie — and
	// restore preallocates rawLen bytes on the manifest's word.
	if int64(rawLen) > int64(len(info.addrs))*MaxChunkBytes {
		return info, fmt.Errorf("%w: chunk manifest claims %d bytes in %d chunks", ErrCorrupt, rawLen, len(info.addrs))
	}
	return info, nil
}

// manifestReferences reads what each snapshot manifest present in b
// references into refs, keyed ns+key; manifests that reference nothing
// (monolithic, torn, corrupt) get no entry.
func manifestReferences(b storage.Backend, ns string, refs map[string][]string) error {
	snaps, err := listSnapshots(b)
	if err != nil {
		return err
	}
	for _, ref := range snaps {
		// Only a manifest deleted between the listing and this read —
		// another job's retention GC racing a fleet-wide scan — is forgiven:
		// its chunks are exactly the ones a collection may drop, and those
		// shared with live manifests are kept by those manifests' entries.
		// Any other failed read could hide live references; nothing is swept.
		addrs, err := manifestAddrs(b, ref.key)
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		if len(addrs) > 0 {
			refs[ns+ref.key] = addrs
		}
	}
	return nil
}

// allManifestReferences is the tenant-complete reference scan, what the
// reference index is built from: b's root manifest namespace plus every
// job namespace under JobPrefix, each manifest under the key b knows it by.
func allManifestReferences(b storage.Backend) (map[string][]string, error) {
	refs := make(map[string][]string)
	if err := manifestReferences(b, "", refs); err != nil {
		return nil, err
	}
	ids, err := jobIDs(b)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		ns := jobKeyPrefix(id) + "/"
		if err := manifestReferences(storage.WithPrefix(b, ns), ns, refs); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// CollectOrphanChunks deletes every chunk in b's chunk namespace that no
// readable manifest references — in the root namespace or in any job
// namespace of a multi-tenant store — reporting how many chunks and
// bytes were reclaimed. It is the shared tail of Compact and the `qckpt
// gc` subcommand; on a Tiered backend the reference scan spans every level and
// orphans are collected wherever they live. It must not run concurrently
// with a live writer on the same backend — a chunked save's chunks are
// durable before the manifest that references them, so a mid-flight save
// looks like orphans. Against a live Manager or Service use their
// CollectOrphans, whose pin protocol makes that interleaving safe. Handed
// one job's view, it counts references from the whole store, as a Manager
// opened on that view does, so other tenants' chunks are never orphans.
func CollectOrphanChunks(b storage.Backend) (removed int, reclaimed int64, err error) {
	// The live path with nothing pinned: a process that never saves.
	root, _ := storage.SharedBase(b)
	return newSharedChunks(b, root).collectOrphans()
}
