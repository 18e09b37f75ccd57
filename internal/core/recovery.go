package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/storage"
)

// ErrNoCheckpoint is returned by LoadLatestBackendOptions when the backend
// holds no usable snapshot.
var ErrNoCheckpoint = errors.New("core: no usable checkpoint found")

// LoadReport describes a recovery: which snapshot was restored, how long
// its delta chain was, what was skipped on the way, and where the time
// went.
type LoadReport struct {
	Path     string
	Seq      uint64
	Step     uint64
	ChainLen int      // snapshots read to reconstruct (1 for a full)
	Skipped  []string // corrupt or unresolvable candidates, newest first
	LoadCost          // summed over every candidate tried, skipped ones included
}

// LoadCost attributes a recovery's time to stages. Every duration is
// measured on the goroutine that ran the recovery — chunks a helper fetched
// or the chain prefetcher warmed show up only as a shorter Fetch — so the
// stages add up to the time the caller waited, less loop overhead.
type LoadCost struct {
	Index  time.Duration // listing snapshots and parsing their headers
	Fetch  time.Duration // getting snapshot objects and chunks: read, content check, unframe, waits on helpers
	Apply  time.Duration // copying anchor pieces and XORing delta pieces into the payload
	Verify time.Duration // SHA-256 of the payload at the anchor and after every link
	Decode time.Duration // DecodePayload and the Meta compatibility check

	ChunksFetched     int   // chunk reads issued, one per distinct address per snapshot
	ZeroPiecesSkipped int   // all-zero delta pieces that cost no XOR
	BytesHashed       int64 // bytes fed to SHA-256: snapshot files, chunk frames, payloads
}

// indexEntry caches one snapshot object's header for chain resolution.
type indexEntry struct {
	snapshotRef
	h Header
}

// recoveryCacheBytes bounds the read cache under every snapshotView.
// Chain resolution re-reads anchors and shared chunks once per candidate;
// on a Tiered backend each re-read of a demoted object would otherwise be
// billed at cold-device cost. 64 MiB holds the working set of any chain
// the engine realistically writes while staying far from memory pressure.
const recoveryCacheBytes = 64 << 20

// snapshotView reads snapshots (including chunked ones) from a backend,
// through a one-shard storage.Coalescer (one shard keeps the byte budget
// and the LRU order exact): a cold-tier restore pays the cold fetch once
// and every later touch — repeated chain resolution, shared chunks between
// deltas — is served warm, and the engine's workers and the chain
// prefetcher asking for one object at the same moment share one fetch of
// it. Its RestoreOptions size the chunk engine (restore.go). cost
// accumulates what the view's owner spent; only the goroutine resolving
// through the view writes it.
type snapshotView struct {
	b    storage.Backend
	cs   *storage.ChunkStore
	opts RestoreOptions
	cost LoadCost
}

func newSnapshotView(b storage.Backend, opts RestoreOptions) *snapshotView {
	cb := storage.NewCoalescerShards(b, recoveryCacheBytes, 1)
	return &snapshotView{b: cb, cs: storage.NewChunkStore(storage.WithPrefix(cb, ChunkPrefix)), opts: opts}
}

// readObject fetches the snapshot object at key, checks its whole-file
// hash and returns its decompressed body as stored — payload or delta bytes
// for monolithic kinds, the chunk manifest for chunked ones — and, for the
// latter, the parsed manifest. The body is a fresh buffer, never the cached
// object.
func (v *snapshotView) readObject(key string) (Header, []byte, chunkManifestInfo, error) {
	start := time.Now()
	defer func() { v.cost.Fetch += time.Since(start) }()
	data, err := v.b.Get(key)
	if err != nil {
		return Header{}, nil, chunkManifestInfo{}, err
	}
	v.cost.BytesHashed += int64(len(data))
	return decodeManifestObject(data)
}

// assemble reconstructs a chunked snapshot's body from its manifest into a
// buffer the caller owns; every worker count returns bitwise-identical
// bodies.
func (v *snapshotView) assemble(info chunkManifestInfo) ([]byte, error) {
	body := make([]byte, 0, info.rawLen)
	err := walkPieces(v.cs, info, v.opts, &v.cost, func(_ int, piece []byte) error {
		if len(piece) > info.rawLen-len(body) {
			return fmt.Errorf("%w: assembled more than the %d manifest bytes", ErrCorrupt, info.rawLen)
		}
		body = append(body, piece...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(body) != info.rawLen {
		return nil, fmt.Errorf("%w: assembled %d bytes, manifest says %d", ErrCorrupt, len(body), info.rawLen)
	}
	return body, nil
}

// readBody fully verifies the snapshot object at key and returns its
// resolved body: the payload or delta bytes, with chunked bodies assembled
// from the chunk store.
func (v *snapshotView) readBody(key string) (Header, []byte, error) {
	h, body, info, err := v.readObject(key)
	if err == nil && h.Kind.Chunked() {
		body, err = v.assemble(info)
	}
	if err != nil {
		return h, nil, err
	}
	return h, body, nil
}

// applyLink applies the delta snapshot at key to payload in place and
// returns the result (a new buffer only when the payload grew past its
// capacity). The delta body is never materialised: each distinct chunk is
// fetched and unframed once and only its non-zero pieces are XORed in, so
// the link costs O(dirty bytes) on top of reading its manifest. payload
// must be a buffer the caller owns; after an error it is garbage.
func (v *snapshotView) applyLink(key string, payload []byte) ([]byte, error) {
	h, body, info, err := v.readObject(key)
	if err != nil {
		return nil, err
	}
	a := deltaApplier{payload: payload, rawLen: len(body)}
	if h.Kind.Chunked() {
		a.rawLen = info.rawLen
		err = walkPieces(v.cs, info, v.opts, &v.cost, a.visit)
	} else {
		start := time.Now()
		err = a.visit(0, body)
		v.cost.Apply += time.Since(start)
	}
	v.cost.ZeroPiecesSkipped += a.skipped
	if err != nil {
		return nil, err
	}
	return a.finish()
}

// payloadIs reports whether payload hashes to want.
func (v *snapshotView) payloadIs(payload []byte, want [32]byte) bool {
	start := time.Now()
	ok := PayloadHash(payload) == want
	v.cost.Verify += time.Since(start)
	v.cost.BytesHashed += int64(len(payload))
	return ok
}

// applyVerified applies the delta snapshot at ent to payload in place
// (applyLink) and checks the result against ent's PayloadHash.
func (v *snapshotView) applyVerified(ent indexEntry, payload []byte) ([]byte, error) {
	payload, err := v.applyLink(ent.key, payload)
	if err != nil {
		return nil, err
	}
	if !v.payloadIs(payload, ent.h.PayloadHash) {
		return nil, fmt.Errorf("%w: reconstructed payload hash mismatch at seq %d", ErrCorrupt, ent.h.Seq)
	}
	return payload, nil
}

// buildIndex parses the header of every snapshot object in the backend.
// Objects whose header cannot be parsed are reported in skipped but do not
// abort the scan.
func (v *snapshotView) buildIndex() (bySeq []indexEntry, byPayloadHash map[[32]byte]indexEntry, skipped []string, err error) {
	refs, err := listSnapshots(v.b)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: list checkpoints: %w", err)
	}
	byPayloadHash = make(map[[32]byte]indexEntry)
	for _, ref := range refs {
		h, err := probeHeader(v.b, ref.key)
		if err != nil {
			skipped = append(skipped, ref.key)
			continue
		}
		ent := indexEntry{ref, h}
		bySeq = append(bySeq, ent)
		byPayloadHash[h.PayloadHash] = ent
	}
	sort.Slice(bySeq, func(i, j int) bool { return bySeq[i].h.Seq > bySeq[j].h.Seq })
	return bySeq, byPayloadHash, skipped, nil
}

// maxChainLen bounds delta-chain resolution against cyclic or degenerate
// metadata.
const maxChainLen = 1 << 16

// resolvePayload reconstructs the canonical payload of the snapshot at ent:
// the anchor of its delta chain is assembled into a buffer the resolver
// owns and every link is applied to that buffer in place (applyLink), so
// reading and applying a link costs O(dirty bytes). The payload is hashed
// against the header of the anchor before anything is applied to it and
// against the header of every link after it is applied, as it has been
// since chains exist: the first wrong link is named, nothing is built on
// it, and no payload is returned unless it hashes to the target header's
// PayloadHash. That hash is now the one O(state) pass a link still costs
// (DESIGN.md §4 says what hashing only the two ends would save and give
// up). With more than one worker the next link's manifest and chunks are
// prefetched into the view's cache while the current link is fetched and
// applied, so cold I/O for link N+1 overlaps the CPU work of link N.
func (v *snapshotView) resolvePayload(ent indexEntry, byPayloadHash map[[32]byte]indexEntry) (payload []byte, chainLen int, err error) {
	// Walk back collecting the chain: ent, base(ent), base(base(ent)), …
	chain := []indexEntry{ent}
	cur := ent
	for cur.h.Kind.Base() == KindDelta {
		if len(chain) > maxChainLen {
			return nil, 0, fmt.Errorf("%w: delta chain too long", ErrCorrupt)
		}
		base, ok := byPayloadHash[cur.h.BaseHash]
		if !ok {
			return nil, 0, fmt.Errorf("%w: delta base %x… missing", ErrCorrupt, cur.h.BaseHash[:6])
		}
		chain = append(chain, base)
		cur = base
	}
	// Apply forward from the anchor. The deferred wait ensures no warmer
	// outlives resolution, error or not.
	var pf prefetcher
	defer pf.wait()
	var warmed func() // wait for the in-flight warm of the next link
	if v.opts.parallel() && len(chain) >= 2 {
		warmed = pf.start(v, chain[len(chain)-2].key)
	}
	anchor := chain[len(chain)-1]
	_, payload, err = v.readBody(anchor.key)
	if err != nil {
		return nil, 0, err
	}
	if !v.payloadIs(payload, anchor.h.PayloadHash) {
		return nil, 0, fmt.Errorf("%w: anchor payload hash mismatch", ErrCorrupt)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		ready := warmed
		warmed = nil
		if v.opts.parallel() && i-1 >= 0 {
			warmed = pf.start(v, chain[i-1].key)
		}
		if ready != nil {
			ready() // this link's warm has run since the previous iteration
		}
		if payload, err = v.applyVerified(chain[i], payload); err != nil {
			return nil, 0, err
		}
	}
	return payload, len(chain), nil
}

// DirBackend opens an existing checkpoint directory as the local backend
// every entry point takes, refusing to create the directory as a side
// effect of a read.
func DirBackend(dir string) (storage.Backend, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("core: read checkpoint dir: %w", err)
	}
	return storage.NewLocal(dir)
}

// LoadLatestBackendOptions restores the newest valid snapshot stored in b,
// falling back to older snapshots when the newest is corrupt or its chain
// is broken. If live is non-nil, snapshots whose Meta is incompatible with
// *live are skipped (with an error recorded) rather than restored into the
// wrong run. The report's Path is the backend key. The zero opts run one
// chunk worker and no chain prefetch; otherwise chunked bodies are
// assembled by opts.Workers concurrent fetch+decompress workers and delta
// chains prefetch their next link while the current one applies. The
// recovered state is bitwise-identical under every worker count.
func LoadLatestBackendOptions(b storage.Backend, live *Meta, opts RestoreOptions) (*TrainingState, LoadReport, error) {
	v := newSnapshotView(b, opts)
	start := time.Now()
	bySeq, byHash, skipped, err := v.buildIndex()
	if err != nil {
		return nil, LoadReport{}, err
	}
	v.cost.Index = time.Since(start)
	report := LoadReport{Skipped: skipped}
	for _, ent := range bySeq {
		state, chainLen, err := v.restore(ent, byHash, live)
		if err != nil {
			report.Skipped = append(report.Skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
			continue
		}
		report.Path = ent.key
		report.Seq = ent.h.Seq
		report.Step = ent.h.Step
		report.ChainLen = chainLen
		report.LoadCost = v.cost
		return state, report, nil
	}
	report.LoadCost = v.cost
	return nil, report, ErrNoCheckpoint
}

// restore resolves and decodes the snapshot at ent, refusing a state whose
// Meta is incompatible with *live (when live is non-nil).
func (v *snapshotView) restore(ent indexEntry, byHash map[[32]byte]indexEntry, live *Meta) (*TrainingState, int, error) {
	payload, chainLen, err := v.resolvePayload(ent, byHash)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	defer func() { v.cost.Decode += time.Since(start) }()
	state, err := DecodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	if live != nil {
		if err := state.Meta.CompatibleWith(*live); err != nil {
			return nil, 0, err
		}
	}
	return state, chainLen, nil
}

// ReadSnapshotBody loads one snapshot file and resolves its body — the
// canonical payload for full snapshots, the delta bytes for deltas —
// assembling chunked bodies through the chunk store next to the file
// (<dir>/chunks).
func ReadSnapshotBody(filePath string) (Header, []byte, error) {
	data, err := os.ReadFile(filePath)
	if err != nil {
		return Header{}, nil, err
	}
	h, body, info, err := decodeManifestObject(data)
	if err != nil {
		return h, nil, err
	}
	if h.Kind.Chunked() {
		b, berr := DirBackend(filepath.Dir(filePath))
		if berr != nil {
			return h, nil, berr
		}
		body, err = newSnapshotView(b, RestoreOptions{}).assemble(info)
		if err != nil {
			return h, nil, err
		}
	}
	return h, body, nil
}

// VerifyFile fully verifies a single snapshot file: whole-file hash,
// decompression, and — for full snapshots — payload hash and decodability.
// Chunked snapshots are resolved through the chunk store next to the file
// (<dir>/chunks). Delta bodies are verified up to their own bytes; chain
// application requires the base (use VerifyBackend for that).
func VerifyFile(filePath string) (Header, error) {
	h, body, err := ReadSnapshotBody(filePath)
	if err != nil {
		return h, err
	}
	if h.Kind.Base() == KindFull {
		if PayloadHash(body) != h.PayloadHash {
			return h, fmt.Errorf("%w: payload hash mismatch", ErrCorrupt)
		}
		if _, err := DecodePayload(body); err != nil {
			return h, err
		}
	}
	return h, nil
}

// VerifyBackend verifies every snapshot in b including delta-chain and
// chunk resolution; it returns one error message per broken snapshot.
// Each chain is walked forward from its anchor once, applying every link
// in place (the same verified step recovery takes) and checking its
// decodability, so the first broken link is named and it and every
// snapshot built on it are reported.
func VerifyBackend(b storage.Backend) (ok int, problems []string, err error) {
	v := newSnapshotView(b, RestoreOptions{})
	bySeq, byHash, skipped, err := v.buildIndex()
	if err != nil {
		return 0, nil, err
	}
	w := chainVerifier{v: v, children: make(map[string][]indexEntry), verdict: make(map[string]error, len(bySeq))}
	var anchors, orphans []indexEntry
	for _, ent := range bySeq {
		if ent.h.Kind.Base() != KindDelta {
			anchors = append(anchors, ent)
		} else if base, found := byHash[ent.h.BaseHash]; found {
			w.children[base.key] = append(w.children[base.key], ent)
		} else {
			orphans = append(orphans, ent)
		}
	}
	for _, ent := range anchors {
		w.anchor(ent)
	}
	for _, ent := range orphans {
		w.fail(ent, fmt.Errorf("%w: delta base %x… missing", ErrCorrupt, ent.h.BaseHash[:6]))
	}
	problems = append(problems, skipped...)
	for _, ent := range bySeq {
		verr, seen := w.verdict[ent.key]
		if !seen { // reachable from no anchor and no missing base: its bases form a cycle
			verr = fmt.Errorf("%w: delta chain too long", ErrCorrupt)
		}
		if verr != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path.Base(ent.key), verr))
			continue
		}
		ok++
	}
	return ok, problems, nil
}

// chainVerifier walks the forest that BaseHash links make of a backend's
// snapshots, recording one verdict per snapshot (nil for a sound one).
type chainVerifier struct {
	v        *snapshotView
	children map[string][]indexEntry // base snapshot key → deltas recorded against its payload
	verdict  map[string]error
}

// fail records err for ent and for every snapshot built on it: none of
// them can be reconstructed.
func (w *chainVerifier) fail(ent indexEntry, err error) {
	w.verdict[ent.key] = err
	for _, kid := range w.children[ent.key] {
		w.fail(kid, err)
	}
}

// check records whether payload, which hashed to ent's PayloadHash, also
// decodes. An undecodable snapshot is broken by itself; its bytes are
// still the right base for the deltas built on it.
func (w *chainVerifier) check(ent indexEntry, payload []byte) {
	_, err := DecodePayload(payload)
	w.verdict[ent.key] = err
}

// anchor verifies the full snapshot at ent and the chains hanging off it.
func (w *chainVerifier) anchor(ent indexEntry) {
	_, payload, err := w.v.readBody(ent.key)
	if err == nil && !w.v.payloadIs(payload, ent.h.PayloadHash) {
		err = fmt.Errorf("%w: anchor payload hash mismatch", ErrCorrupt)
	}
	if err != nil {
		w.fail(ent, err)
		return
	}
	w.check(ent, payload)
	w.descend(ent, payload)
}

// descend verifies every chain built on ent, whose verified payload it is
// handed and consumes: the last child is applied to it in place (and the
// walk continues there without recursing, so an unbranched chain of any
// length uses one buffer and one stack frame), earlier children to copies.
func (w *chainVerifier) descend(ent indexEntry, payload []byte) {
	for {
		kids := w.children[ent.key]
		if len(kids) == 0 {
			return
		}
		for _, kid := range kids[:len(kids)-1] {
			if p, ok := w.link(kid, bytes.Clone(payload)); ok {
				w.descend(kid, p)
			}
		}
		last := kids[len(kids)-1]
		p, ok := w.link(last, payload)
		if !ok {
			return
		}
		ent, payload = last, p
	}
}

// link applies the delta at ent to its base's payload and checks the
// result against ent's header.
func (w *chainVerifier) link(ent indexEntry, payload []byte) ([]byte, bool) {
	payload, err := w.v.applyVerified(ent, payload)
	if err != nil {
		w.fail(ent, err)
		return nil, false
	}
	w.check(ent, payload)
	return payload, true
}

// ListSnapshotsBackend returns headers of all parseable snapshots in b,
// newest first.
func ListSnapshotsBackend(b storage.Backend) ([]Header, []string, error) {
	bySeq, _, skipped, err := newSnapshotView(b, RestoreOptions{}).buildIndex()
	if err != nil {
		return nil, nil, err
	}
	hs := make([]Header, len(bySeq))
	for i, e := range bySeq {
		hs[i] = e.h
	}
	return hs, skipped, nil
}
