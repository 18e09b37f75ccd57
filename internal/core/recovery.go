package core

import (
	"errors"
	"fmt"
	"os"
	"path"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
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
	Skipped  []string // in the order recovery met them: failed candidates ("<name>: <error>") and keys of headers a candidate or a chain needed that would not parse
	LoadCost          // summed over every candidate tried, skipped ones included
}

// LoadCost attributes a recovery's time to stages, lapped back to back on
// the goroutine that ran it, so they add up to the time the caller waited:
// chunks a helper fetched or the chain prefetcher warmed show up only as a
// shorter Fetch, and waiting for either is Fetch.
type LoadCost struct {
	Index  time.Duration // listing snapshots and probing their headers
	Fetch  time.Duration // getting snapshot objects and chunks: read, file hash, unframe, waits on helpers and warmers; chunk address checks on a conviction walk
	Apply  time.Duration // copying anchor pieces and XORing delta pieces into the payload
	Verify time.Duration // SHA-256 of the payload at the target; at the anchor and after every link too on a conviction walk
	Decode time.Duration // DecodePayload, the Meta compatibility check and the payload's release

	HeadersProbed     int   // snapshot headers range-read, each once: the candidates tried and the refs their chains passed
	ChunksFetched     int   // chunk reads issued, one per distinct address per snapshot
	ZeroPiecesSkipped int   // all-zero delta pieces that cost no XOR
	BytesHashed       int64 // bytes fed to SHA-256: snapshot files and the target's payload (its leaves and the root's 8 + 32·leaves input); on a conviction walk chunk frames, the anchor and every link too
	ConvictionWalks   int   // chains walked a second time, every check on, to name the chunk or link that is wrong
}

// Total is the restore's time, its stages' sum: SaveCost.Persist's partner.
func (c LoadCost) Total() time.Duration { return c.Index + c.Fetch + c.Apply + c.Verify + c.Decode }

// indexEntry is one snapshot object beside its probed header.
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
// accumulates what the view's owner spent, convicted the links a conviction
// walk found wrong, and unchecked is set for the length of a clean walk,
// whose chunk reads skip the address check every other reader makes; only
// the goroutine resolving through the view writes them. manifests, on a view
// that has one (recovery's: it walks a chain again to convict a link, and
// candidate after candidate over the same links), keeps every chunked
// snapshot object checked and parsed, so each is fetched, hashed, inflated
// and parsed once — by the chain warmer when there is one, hence mu.
// batches is whether the store under the view reads a batch natively
// (storage.Caps before the Coalescer, which declares one on any base): only
// then is a walk's anchor warmed in one batch (prefetcher.start).
//
// Payloads the view resolves are pooled (pool.go, DESIGN.md §8): whoever is
// handed a *refBuf is its one holder and releases it when done, on every
// path; callees it passes the buffer to never do.
type snapshotView struct {
	stopwatch // the resolving goroutine's, which charges cost
	b         storage.Backend
	cs        *storage.ChunkStore
	opts      RestoreOptions
	cost      LoadCost
	convicted map[string]error
	unchecked bool
	batches   bool
	refs      []snapshotRef // the recovery index (listIndex): the store's snapshots, oldest first,
	headers   []*Header     // … refs[i]'s once probed (entry), a zero Header if it did not parse,
	skipped   []string      // … and what recovery passed over, in the order it met it
	mu        sync.Mutex
	manifests map[string]*snapshotObject
}

// snapshotObject is a snapshot object that passed decodeManifestObject: the
// parsed manifest of a chunked kind, the still-compressed body of a
// monolithic one (never kept: it is as large as the state).
type snapshotObject struct {
	h       Header
	info    chunkManifestInfo
	comp    []byte
	fileLen int  // bytes the whole-file hash covered
	charged bool // the resolver has counted fileLen in cost.BytesHashed
}

func newSnapshotView(b storage.Backend, opts RestoreOptions) *snapshotView {
	origin := stopwatch{clock.Wall, clock.Wall.Now()} // first, so the view's construction is a lap too
	cb := storage.NewCoalescerShards(b, recoveryCacheBytes, 1)
	return &snapshotView{stopwatch: origin, b: cb, cs: storage.NewChunkStore(storage.WithPrefix(cb, ChunkPrefix)), opts: opts, convicted: make(map[string]error), batches: storage.Caps(b).Batch != nil}
}

// object fetches and checks the snapshot object at key, or recalls it from
// manifests. The chain warmers call it beside the resolver.
func (v *snapshotView) object(key string) (*snapshotObject, error) {
	v.mu.Lock()
	o := v.manifests[key]
	v.mu.Unlock()
	if o != nil {
		return o, nil
	}
	data, err := v.b.Get(key)
	if err != nil {
		return nil, err
	}
	o = &snapshotObject{fileLen: len(data)}
	if o.h, o.comp, o.info, err = decodeManifestObject(data); err != nil {
		return nil, err
	}
	if o.h.Kind.Chunked() {
		o.comp = nil
		v.mu.Lock()
		if v.manifests != nil {
			v.manifests[key] = o
		}
		v.mu.Unlock()
	}
	return o, nil
}

// readObject is object for the resolving goroutine: the time goes to Fetch
// and the object's bytes, the first time the resolver meets it, to
// BytesHashed. probed, if any, is the header an unverified range read gave
// the index — chains were resolved by it, payloads are hashed against it —
// and the object read whole, file hash passed, must carry the same one.
func (v *snapshotView) readObject(key string, probed *Header) (*snapshotObject, error) {
	o, err := v.object(key)
	v.lap(&v.cost.Fetch)
	if err == nil && !o.charged {
		o.charged = true
		v.cost.BytesHashed += int64(o.fileLen)
	}
	if err == nil && probed != nil && o.h != *probed {
		return nil, fmt.Errorf("%w: header changed between probe and read", ErrCorrupt)
	}
	return o, err
}

// assemble reconstructs a chunked snapshot's body from its manifest into a
// pooled buffer the caller holds; every worker count returns
// bitwise-identical bodies.
func (v *snapshotView) assemble(info chunkManifestInfo) (*refBuf, error) {
	body := getBody(info.rawLen)
	err := v.walkPieces(info, func(_ int, piece []byte) error {
		if len(piece) > info.rawLen-len(body.b) {
			return fmt.Errorf("%w: assembled more than the %d manifest bytes", ErrCorrupt, info.rawLen)
		}
		body.b = append(body.b, piece...)
		return nil
	})
	if err == nil && len(body.b) != info.rawLen {
		err = fmt.Errorf("%w: assembled %d bytes, manifest says %d", ErrCorrupt, len(body.b), info.rawLen)
	}
	if err != nil {
		body.release()
		return nil, err
	}
	return body, nil
}

// readBody fully verifies the snapshot object at key (readObject) and returns
// it beside its resolved body in a pooled buffer the caller holds: the
// payload or delta bytes, with chunked bodies assembled from the chunk store.
func (v *snapshotView) readBody(key string, probed *Header) (*snapshotObject, *refBuf, error) {
	o, err := v.readObject(key, probed)
	if err != nil {
		return nil, nil, err
	}
	if o.h.Kind.Chunked() {
		body, err := v.assemble(o.info)
		return o, body, err
	}
	body := getBody(0) // whatever the pool has: inflate sizes it
	body.b, err = inflate(body.b, o.comp, -1)
	v.lap(&v.cost.Fetch)
	if err != nil {
		body.release()
		return o, nil, err
	}
	return o, body, nil
}

// applyLink applies the delta snapshot at ent to payload in place (its
// buffer traded for a larger pooled one only if the payload outgrew it). The
// delta body is never materialised: each distinct chunk is
// fetched and unframed once and only its non-zero pieces are XORed in, so
// the link costs O(dirty bytes) on top of reading its manifest. After an
// error the payload's bytes are garbage.
func (v *snapshotView) applyLink(ent indexEntry, payload *refBuf) error {
	o, err := v.readObject(ent.key, &ent.h)
	if err != nil {
		return err
	}
	a := deltaApplier{payload: payload}
	if o.h.Kind.Chunked() {
		a.rawLen = o.info.rawLen
		err = v.walkPieces(o.info, a.visit)
	} else {
		var delta []byte
		var sp *[]byte
		if delta, sp, err = inflateScratch(o.comp, -1); err == nil {
			v.lap(&v.cost.Fetch)
			a.rawLen = len(delta)
			err = a.visit(0, delta)
			v.lap(&v.cost.Apply)
			putScratch(sp)
		}
	}
	v.cost.ZeroPiecesSkipped += a.skipped
	if err != nil {
		return err
	}
	return a.finish()
}

// payloadIs reports whether payload is the one h names (Header.identifies).
func (v *snapshotView) payloadIs(payload []byte, h Header) bool {
	ok, hashed := h.identifies(payload)
	v.lap(&v.cost.Verify)
	v.cost.BytesHashed += int64(hashed)
	return ok
}

// applyVerified applies the delta snapshot at ent to payload in place
// (applyLink) and checks the result against ent's PayloadHash.
func (v *snapshotView) applyVerified(ent indexEntry, payload *refBuf) error {
	if err := v.applyLink(ent, payload); err != nil {
		return err
	}
	if !v.payloadIs(payload.b, ent.h) {
		return fmt.Errorf("%w: reconstructed payload hash mismatch at seq %d", ErrCorrupt, ent.h.Seq)
	}
	return nil
}

// listIndex lists the store's snapshots into the view's index, probing none.
func (v *snapshotView) listIndex() (err error) {
	if v.refs, err = listSnapshots(v.b); err != nil {
		return fmt.Errorf("core: list checkpoints: %w", err)
	}
	v.headers = make([]*Header, len(v.refs))
	v.lap(&v.cost.Index)
	return nil
}

// entry returns refs[i] beside its header, probed on first use and then
// remembered (DESIGN.md §8); ok is false for a header that would not parse.
func (v *snapshotView) entry(i int) (ent indexEntry, ok bool) {
	if v.headers[i] == nil {
		h, err := probeHeader(v.b, v.refs[i].key)
		if v.cost.HeadersProbed++; err != nil {
			h, v.skipped = Header{}, append(v.skipped, v.refs[i].key)
		}
		v.headers[i] = &h
		v.lap(&v.cost.Index)
	}
	return indexEntry{v.refs[i], *v.headers[i]}, v.headers[i].Kind != 0 // a parsed Kind is valid, never 0
}

// probeAll lists and probes every snapshot: the parsed ones, newest first.
func (v *snapshotView) probeAll() ([]indexEntry, error) {
	err := v.listIndex()
	ents := make([]indexEntry, 0, len(v.refs))
	for i := len(v.refs) - 1; i >= 0; i-- {
		if ent, ok := v.entry(i); ok {
			ents = append(ents, ent)
		}
	}
	return ents, err
}

// baseOf returns the snapshot the delta at ent was recorded against: the
// newest one older than ent that holds its base payload, probing the refs
// below ent newest first. A state saved twice gives several snapshots one
// payload hash; looking only below ent makes sequence numbers fall along a
// chain, so every chain ends and none loops.
func (v *snapshotView) baseOf(ent indexEntry) (indexEntry, error) {
	for i := sort.Search(len(v.refs), func(i int) bool { return v.refs[i].seq >= ent.seq }) - 1; i >= 0; i-- {
		if base, ok := v.entry(i); ok && base.h.PayloadHash == ent.h.BaseHash {
			return base, nil
		}
	}
	return indexEntry{}, fmt.Errorf("%w: delta base %x… missing", ErrCorrupt, string(ent.h.BaseHash[:6])) // a copy: ent stays on the stack
}

// verifyEveryLink makes every walk run every check, as a conviction walk
// does. Only the equivalence fuzzer of chain_restore_test.go sets it.
var verifyEveryLink bool

// resolvePayload reconstructs the canonical payload of chain[0] with one
// payload-sized hash, the target's (walk): a wrong chunk, anchor or link
// below it can only yield a payload that misses that hash, or garbage that a
// later step refuses on a length (DESIGN.md §4). A failed walk says the chain
// is unusable, not where, so it is walked once more with every check on, and
// that walk's verdict, naming the first wrong chunk or link, is reported and
// remembered: candidates built on it get it before any I/O.
func (v *snapshotView) resolvePayload(chain []indexEntry) (*refBuf, error) {
	for _, link := range chain {
		if err := v.convicted[link.key]; err != nil {
			return nil, err
		}
	}
	payload, at, err := v.walk(chain, verifyEveryLink)
	if err != nil && !verifyEveryLink {
		v.cost.ConvictionWalks++
		if payload, at, err = v.walk(chain, true); err != nil {
			v.convicted[chain[at].key] = err
		}
	}
	return payload, err
}

// walk assembles the anchor of chain (target first, anchor last) into a
// pooled buffer, applies every link to it in place, so a link costs O(dirty
// bytes), and checks the result against the target's header: the one check
// of content a clean walk makes. With everything, chunks are also hashed
// against their addresses and the payload against its header at the anchor
// and after every link (applyVerified). A failure is at chain[at], and the
// buffer is back in the pool. The next link is warmed while this one applies,
// and on a store that batches the anchor is warmed beside the first link;
// waiting for a warmer is Fetch time.
func (v *snapshotView) walk(chain []indexEntry, everything bool) (payload *refBuf, at int, err error) {
	v.unchecked = !everything
	var pf prefetcher
	defer func() { // no warmer outlives the walk, error or not
		pf.Wait()
		v.lap(&v.cost.Fetch)
		v.unchecked = false
	}()
	at = len(chain) - 1
	anchor := pf.start(v, chain, at)
	warmed := pf.start(v, chain, at-1)
	anchor() // readBody's first lap books the wait as Fetch
	_, payload, err = v.readBody(chain[at].key, &chain[at].h)
	if err != nil {
		return nil, at, err
	}
	if (everything || at == 0) && !v.payloadIs(payload.b, chain[at].h) {
		payload.release()
		return nil, at, fmt.Errorf("%w: anchor payload hash mismatch", ErrCorrupt)
	}
	for at--; at >= 0; at-- {
		ready := warmed
		warmed = pf.start(v, chain, at-1)
		ready() // this link's warm has run since the previous iteration
		v.lap(&v.cost.Fetch)
		if everything || at == 0 {
			err = v.applyVerified(chain[at], payload)
		} else {
			err = v.applyLink(chain[at], payload)
		}
		if err != nil {
			payload.release()
			return nil, at, err
		}
	}
	return payload, 0, nil
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
// chunk worker and no chain prefetch; otherwise opts.Workers workers fetch
// and decompress chunks and a chain prefetches its next link while the
// current one applies. The state is bitwise-identical under every count.
func LoadLatestBackendOptions(b storage.Backend, live *Meta, opts RestoreOptions) (*TrainingState, LoadReport, error) {
	return newSnapshotView(b, opts).latest(live)
}

// latest is LoadLatestBackendOptions on a fresh view.
func (v *snapshotView) latest(live *Meta) (*TrainingState, LoadReport, error) {
	v.manifests = make(map[string]*snapshotObject)
	if err := v.listIndex(); err != nil {
		return nil, LoadReport{}, err
	}
	for i := len(v.refs) - 1; i >= 0; i-- { // newest first
		ent, ok := v.entry(i)
		if !ok {
			continue
		}
		state, chainLen, err := v.restore(ent, live)
		if err != nil {
			v.skipped = append(v.skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
			continue
		}
		return state, LoadReport{Path: ent.key, Seq: ent.h.Seq, Step: ent.h.Step, ChainLen: chainLen, Skipped: v.skipped, LoadCost: v.cost}, nil
	}
	return nil, LoadReport{Skipped: v.skipped, LoadCost: v.cost}, ErrNoCheckpoint
}

// restore resolves and decodes the snapshot at ent, refusing a state whose
// Meta is incompatible with *live (when live is non-nil).
func (v *snapshotView) restore(ent indexEntry, live *Meta) (*TrainingState, int, error) {
	var err error
	chain := []indexEntry{ent} // ent, base(ent), base(base(ent)), … to the anchor
	for cur := ent; cur.h.Kind.Base() == KindDelta; chain = append(chain, cur) {
		if cur, err = v.baseOf(cur); err != nil {
			return nil, 0, err
		}
	}
	payload, err := v.resolvePayload(chain)
	if err != nil {
		return nil, 0, err
	}
	defer v.lap(&v.cost.Decode)
	defer payload.release() // DecodePayload copies every section out
	state, err := DecodePayload(payload.b)
	if err != nil {
		return nil, 0, err
	}
	if live != nil {
		if err := state.Meta.CompatibleWith(*live); err != nil {
			return nil, 0, err
		}
	}
	return state, len(chain), nil
}

// Snapshot is one snapshot object as InspectSnapshot found it. The chunk
// fields describe a chunked kind's manifest — entries in order, distinct
// addresses and, for content-defined boundaries (CHUNKS3), the chunker
// revision and its min/average/max bounds — and State is a full kind's
// decoded state (nil for a delta, which needs its chain).
type Snapshot struct {
	Header
	RawLen                    int // the resolved body's bytes: a full kind's payload, a delta's delta
	Chunks, Distinct          int
	Chunker                   string
	MinSize, AvgSize, MaxSize int
	State                     *TrainingState
}

// InspectSnapshot fully verifies the snapshot object at key in b — the
// whole-file hash, every chunk of a chunked body and, for the full kinds,
// the payload identity and the decode — and describes it. A delta is
// verified up to its own bytes: applying it needs its base (VerifyBackend).
func InspectSnapshot(b storage.Backend, key string) (Snapshot, error) {
	o, body, err := newSnapshotView(b, RestoreOptions{}).readBody(key, nil)
	if err != nil {
		return Snapshot{}, err
	}
	defer body.release() // DecodePayload copies every section out
	s := Snapshot{Header: o.h, RawLen: len(body.b)}
	if o.h.Kind.Chunked() {
		distinct, _ := distinctAddrs(o.info.addrs)
		s.Chunks, s.Distinct = len(o.info.addrs), len(distinct)
		if o.info.cdc {
			s.Chunker = o.info.chunker
			s.MinSize, s.AvgSize, s.MaxSize = o.info.params.minSize, o.info.params.normSize, o.info.params.maxSize
		}
	}
	if o.h.Kind.Base() == KindFull {
		if ok, _ := o.h.identifies(body.b); !ok {
			return s, fmt.Errorf("%w: payload hash mismatch", ErrCorrupt)
		}
		s.State, err = DecodePayload(body.b)
	}
	return s, err
}

// VerifyBackend verifies every snapshot in b including delta-chain and
// chunk resolution; it returns one error message per broken snapshot.
// Each chain is walked forward from its anchor once, applying every link
// in place and hashing the payload after it (the step a recovery's
// conviction walk takes) and checking its decodability, so the first broken
// link is named and it and every snapshot built on it are reported.
func VerifyBackend(b storage.Backend) (ok int, problems []string, err error) {
	v := newSnapshotView(b, RestoreOptions{})
	bySeq, err := v.probeAll()
	if err != nil {
		return 0, nil, err
	}
	w := chainVerifier{v: v, children: make(map[string][]indexEntry), verdict: make(map[string]error, len(bySeq))}
	for _, ent := range bySeq { // newest first, so every delta recorded against ent is placed by now
		if ent.h.Kind.Base() != KindDelta {
			w.anchor(ent)
		} else if base, err := v.baseOf(ent); err == nil {
			w.children[base.key] = append(w.children[base.key], ent)
		} else {
			w.fail(ent, err)
		}
	}
	problems = append(problems, v.skipped...)
	for _, ent := range bySeq { // baseOf descends, so every snapshot hangs off an anchor or an orphan
		if verr := w.verdict[ent.key]; verr != nil {
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

// settle records the verdict on ent, whose payload was resolved with err,
// and reports whether the payload is its header's. One that is but does not
// decode is broken by itself and still the right base for the deltas on it;
// one that is not goes back to the pool.
func (w *chainVerifier) settle(ent indexEntry, payload *refBuf, err error) bool {
	if err != nil {
		payload.release()
		w.fail(ent, err)
		return false
	}
	_, w.verdict[ent.key] = DecodePayload(payload.b)
	return true
}

// anchor verifies the full snapshot at ent and the chains hanging off it.
func (w *chainVerifier) anchor(ent indexEntry) {
	_, payload, err := w.v.readBody(ent.key, &ent.h)
	if err == nil && !w.v.payloadIs(payload.b, ent.h) {
		err = fmt.Errorf("%w: anchor payload hash mismatch", ErrCorrupt)
	}
	if w.settle(ent, payload, err) {
		w.descend(ent, payload)
	}
}

// descend verifies every chain built on ent, whose verified payload it is
// handed and consumes: the last child is applied to it in place (and the
// walk continues there without recursing, so an unbranched chain of any
// length uses one buffer and one stack frame), earlier children to pooled
// copies, and where a chain ends its buffer goes back to the pool.
func (w *chainVerifier) descend(ent indexEntry, payload *refBuf) {
	for {
		kids := w.children[ent.key]
		if len(kids) == 0 {
			payload.release()
			return
		}
		for _, kid := range kids[:len(kids)-1] {
			fork := getBody(len(payload.b))
			fork.b = append(fork.b, payload.b...)
			if w.link(kid, fork) {
				w.descend(kid, fork)
			}
		}
		last := kids[len(kids)-1]
		if !w.link(last, payload) {
			return
		}
		ent = last
	}
}

// link applies the delta at ent to its base's payload in place and checks
// the result against ent's header (settle).
func (w *chainVerifier) link(ent indexEntry, payload *refBuf) bool {
	return w.settle(ent, payload, w.v.applyVerified(ent, payload))
}

// ListSnapshotsBackend returns headers of all parseable snapshots in b,
// newest first.
func ListSnapshotsBackend(b storage.Backend) (hs []Header, skipped []string, err error) {
	v := newSnapshotView(b, RestoreOptions{})
	ents, err := v.probeAll() // none when the listing failed
	for _, e := range ents {
		hs = append(hs, e.h)
	}
	return hs, v.skipped, err
}
