package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/storage"
)

// The save path, one function per stage of the ledger (SaveCost): Save runs
// Encode, Seal, Delta and, in async mode, Queue on the trainer's goroutine;
// commit runs the persist — Plan, Chunks, HashWait, Commit — and Retain,
// inline for a synchronous save and on the sequencer for an asynchronous
// one. DESIGN.md §9 has the ledger's table.

// SaveResult reports what one Save produced.
type SaveResult struct {
	Kind         SnapshotKind
	Seq          uint64
	Step         uint64
	Path         string        // the snapshot's backend key
	FileBytes    int           // bytes written to storage (0 until async completes; excludes dedup hits)
	PayloadBytes int           // canonical payload size before delta/compression
	Encode       time.Duration // SaveCost's Encode + Seal: until the payload bytes are final (always synchronous)
	Write        time.Duration // SaveCost.Persist: the persist without retention (0 for async saves)
}

// SaveCost attributes a save's time to its stages, in the order they run.
// Like LoadCost, every stage is timed on the goroutine that ran it — Encode
// through Queue on the trainer's, the rest on the persisting goroutine's
// (the trainer's too in a synchronous save) — and back to back, so the
// stages one goroutine ran add up to its wall time. Stats.Cost sums them
// over every save.
type SaveCost struct {
	Encode   time.Duration // the quota check, Validate's shape checks and the section layout: headers and small sections into scratch, spans over the state's memory
	Seal     time.Duration // the one diff of the spans against the last payload, their write into the payload buffer (what this map or the last one marks, when it holds the payload from two saves back), the section CRCs sealed on the map and the parameters checked under its marked granules
	Delta    time.Duration // the delta body and its copy of the map; the hash start and the save's numbering
	Queue    time.Duration // handing an async save to the sequencer, waiting while its queue is full
	Plan     time.Duration // cutting a chunked body against its lineage's base
	Chunks   time.Duration // framing, hashing and ingesting the dirty chunks, or waiting for the workers doing it
	HashWait time.Duration // joining the background payload hash
	Commit   time.Duration // the snapshot or manifest put, the reference index and unpin, base adoption
	Retain   time.Duration // the QoS bill (quota and rate pacing), retention gc and the migrate kick
}

// Stall is what the trainer waited for: every stage of a synchronous save,
// Encode through Queue of an asynchronous one.
func (c SaveCost) Stall(async bool) time.Duration {
	if async {
		return c.Encode + c.Seal + c.Delta + c.Queue
	}
	return c.Encode + c.Seal + c.Delta + c.Queue + c.Persist() + c.Retain
}

// Persist is the persist without retention: SaveResult.Write.
func (c SaveCost) Persist() time.Duration { return c.Plan + c.Chunks + c.HashWait + c.Commit }

func (c *SaveCost) add(d SaveCost) {
	c.Encode += d.Encode
	c.Seal += d.Seal
	c.Delta += d.Delta
	c.Queue += d.Queue
	c.Plan += d.Plan
	c.Chunks += d.Chunks
	c.HashWait += d.HashWait
	c.Commit += d.Commit
	c.Retain += d.Retain
}

// stopwatch laps one goroutine's stages back to back on its clock, a save's
// (ledger) or a restore's (snapshotView), so that they add up to its wall time.
type stopwatch struct {
	clock clock.Clock
	t     time.Time
}

func (w *stopwatch) lap(stage *time.Duration) {
	now := w.clock.Now()
	*stage += now.Sub(w.t)
	w.t = now
}

// ledger is one goroutine's share of a save's stages.
type ledger struct {
	SaveCost
	stopwatch
}

type writeJob struct {
	name string
	h    Header  // PayloadHash is zero; the persist fills it from hash
	body *refBuf // holds one reference, released by commit
	hash *payloadHash
}

// payloadHash carries a payload's identity (snapshot.go), computed on a
// background goroutine that overlaps everything up to the snapshot header
// encode. get is safe for concurrent use.
type payloadHash struct {
	done   chan struct{}
	root   [32]byte
	tree   []byte // the root's input, which the next save's hash takes over
	hashed int    // bytes fed to SHA-256
}

// startPayloadHash computes p.b's identity on its own goroutine, re-hashing
// only the leaves p.dirty marks against the previous payload, whose hash
// prevHash (nil for none) it waits for and takes over. It holds p, and lets
// it go before it publishes: whoever has joined the hash knows it is
// released.
func startPayloadHash(p *refBuf, prevHash *payloadHash) *payloadHash {
	p.retain()
	a := &payloadHash{done: make(chan struct{})}
	go func() {
		var tree []byte
		if prevHash != nil {
			prevHash.get()
			tree, prevHash.tree = prevHash.tree, nil
		}
		a.tree, a.root, a.hashed = hashLeaves(tree, p.b, p.dirty, leafBytes)
		p.release()
		close(a.done)
	}()
	return a
}

// get blocks until the hash is ready.
func (a *payloadHash) get() [32]byte {
	<-a.done
	return a.root
}

// Save captures the state and persists it according to the strategy. In
// async mode the returned SaveResult has FileBytes and Write set to zero;
// aggregate numbers appear in Stats after Barrier.
func (m *Manager) Save(state *TrainingState) (SaveResult, error) {
	return m.save(state, ledger{stopwatch: stopwatch{m.clock, m.clock.Now()}})
}

// save is Save on ledger l, whose origin Save reads before anything else.
func (m *Manager) save(state *TrainingState, l ledger) (SaveResult, error) {
	if err := m.admit(); err != nil {
		return SaveResult{}, err
	}
	m.activityNs.Store(l.t.UnixNano())
	if err := m.encode(state); err != nil {
		return SaveResult{}, err
	}
	l.lap(&l.Encode)
	m.mu.Lock()
	payload, err := m.seal()
	if err != nil {
		m.mu.Unlock()
		return SaveResult{}, err
	}
	l.lap(&l.Seal)
	job := m.delta(payload, state.Step)
	m.mu.Unlock()
	l.lap(&l.Delta)
	res := SaveResult{
		Kind: job.h.Kind, Seq: job.h.Seq, Step: job.h.Step, Path: job.name,
		PayloadBytes: len(payload.b), Encode: l.Encode + l.Seal,
	}
	if m.opt.Async {
		m.pending.Add(1)
		m.jobs <- job
		l.lap(&l.Queue)
		m.mu.Lock()
		m.stats.Cost.add(l.SaveCost)
		m.mu.Unlock()
		return res, nil
	}
	res.FileBytes, err = m.commit(job, &l)
	res.Write = l.Persist()
	return res, err
}

// admit refuses a save to a closed manager, and the first save after an
// async one failed.
func (m *Manager) admit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("core: manager closed")
	}
	if err := m.asyncErr; err != nil {
		m.asyncErr = nil
		return fmt.Errorf("core: async checkpoint failed earlier: %w", err)
	}
	return nil
}

// encode is the Encode stage. Quota is a soft ceiling checked at save
// admission: bytes already charged to the tenant (GC credits them back)
// must leave room for something — the save's true footprint is only known
// after dedup. Validate's O(1) half runs here and its parameter scan in
// seal, on the diff. The state is laid out as spans (m.spans), not copied.
func (m *Manager) encode(state *TrainingState) error {
	if err := m.qos.checkQuota(); err != nil {
		return err
	}
	if err := state.checkShape(); err != nil {
		return err
	}
	m.spans.layout(state)
	return nil
}

// seal is the Seal stage, run under m.mu: the save's one diff of the spans
// against the last payload — the leaf hash, the delta body and the delta's
// chunk plan read its map, not the bytes — and their write into a buffer,
// sealed on the map, with the parameter check it narrows. The buffer is the
// lagging one, patched, while the manager holds it alone and it, the last
// payload and this one share a length; else a pooled one, written whole. A
// rejected payload goes back to the pool; the manager and its Stats stay.
func (m *Manager) seal() (*refBuf, error) {
	sp, last, payload := &m.spans, m.lastPayload, m.lagging
	m.lagging = nil // a lagging buffer implies a last payload
	patch := payload != nil && payload.refs.Load() == 1 && len(payload.b) == sp.n && len(last.b) == sp.n
	if !patch {
		payload.release()
		payload = getBody(sp.n)
		payload.b = payload.b[:sp.n]
	}
	copied, crc := sp.fill(payload, last, patch)
	clear(sp.spans) // the manager holds no state's memory between saves
	read, err := checkParams(payload.b, sp.params, m.lastParams, payload.dirty)
	if err != nil {
		payload.release()
		return nil, err
	}
	m.lastParams = sp.params
	m.stats.copiedBytes += int64(copied)
	m.stats.crcBytes += int64(crc)
	m.stats.validatedBytes += int64(read)
	return payload, nil
}

// delta is the Delta stage, run under m.mu on a sealed payload: it starts
// the payload's hash, which overlaps everything up to the snapshot header
// encode, builds a delta body from the payload's map when the strategy
// calls for one, numbers the snapshot and keeps the payload as the next
// save's base, and the last one as the lagging buffer.
func (m *Manager) delta(payload *refBuf, step uint64) writeJob {
	hash := startPayloadHash(payload, m.lastHash)
	h, body := Header{Kind: KindFull, Seq: m.seq, Step: step}, payload
	if m.opt.Strategy == StrategyDelta && m.lastPayload != nil && m.sinceAnchor < m.opt.AnchorEvery-1 {
		h.Kind, h.BaseHash = KindDelta, m.lastHash.get()
		body = m.zeros.get(deltaHeaderLen + len(payload.b))
		body.b = appendDelta(body.b, m.lastPayload.b, payload.b, payload.dirty)
		// The body carries its own copy of the map for the chunk plan: as
		// its lineage's base it outlives the payload.
		d := payload.dirty
		body.dirty = dirtyMap{gran: d.gran, base: d.base, bits: append(body.dirty.bits, d.bits...)}
		m.sinceAnchor++
		m.stats.DeltaCount++
	} else {
		// A full snapshot shares the payload buffer between the write job
		// and the next delta's base; the extra reference keeps it alive
		// until both let go.
		payload.retain()
		m.sinceAnchor = 0
		m.stats.FullCount++
	}
	m.seq++
	m.stats.Snapshots++
	m.lagging, m.lastPayload, m.lastHash = m.lastPayload, payload, hash
	return writeJob{name: snapshotName(h.Seq, h.Kind), h: h, body: body, hash: hash}
}

// runSequencer drains the async queue, persisting snapshots strictly in
// submission (= sequence) order so crash consistency of delta chains is
// independent of chunk-write concurrency.
func (m *Manager) runSequencer() {
	defer m.sequencer.Done()
	for job := range m.jobs {
		l := ledger{stopwatch: stopwatch{m.clock, m.clock.Now()}}
		if _, err := m.commit(job, &l); err != nil {
			m.mu.Lock()
			if m.asyncErr == nil {
				m.asyncErr = err
			}
			m.mu.Unlock()
		}
		m.pending.Done()
	}
}

// commit is the tail of every save, run inline by a synchronous Save and by
// the sequencer for an asynchronous one: persist the snapshot and release
// its body, then — once it is durable — pay the tenant's QoS debt, apply
// retention and wake the migrator, and account the save in Stats, its
// ledger l included. It returns the bytes newly written.
func (m *Manager) commit(job writeJob, l *ledger) (n int, err error) {
	m.activityNs.Store(l.t.UnixNano())
	var w chunkWrite // a chunked persist's counts; zero for a monolithic or failed one
	var fileBytes int
	if m.chunks != nil {
		w, fileBytes, err = m.persistChunked(job, l)
	} else {
		job.h.PayloadHash = job.hash.get()
		l.lap(&l.HashWait)
		fileBytes, err = m.putSnapshot(job.name, job.h, job.body.b)
	}
	n = w.total + fileBytes
	job.body.release()
	job.hash.get() // joined already unless persist failed first; Close relies on this join
	l.lap(&l.Commit)
	m.activityNs.Store(l.t.UnixNano())
	if err == nil {
		m.refs = append(m.refs, snapshotRef{key: job.name, seq: job.h.Seq, kind: job.h.Kind.Base(), size: int64(fileBytes)})
		m.qos.bill(int64(n), m.clock)
		m.gc()
		m.kickMigrate()
	}
	l.lap(&l.Retain)
	m.mu.Lock()
	m.stats.BytesWritten += int64(n)
	m.stats.BytesHashed += int64(job.hash.hashed)
	m.stats.Chunks += len(w.addrs)
	m.stats.DedupHits += w.dedup
	m.stats.CleanChunks += w.clean
	m.stats.RawChunks += w.raws
	m.stats.ChunkBytes += int64(w.total)
	m.stats.Cost.add(l.SaveCost)
	m.mu.Unlock()
	return n, err
}

// putSnapshot encodes one snapshot object in pooled scratch and commits it,
// returning its size.
func (m *Manager) putSnapshot(name string, h Header, body []byte) (int, error) {
	sp := getScratch()
	defer putScratch(sp)
	data, err := appendSnapshotFile((*sp)[:0], h, body)
	if err != nil {
		return 0, err
	}
	*sp = data
	if err := storage.PutClass(m.backend, name, data, storage.ClassManifest); err != nil {
		return 0, err
	}
	return len(data), nil
}

// chunkBase is the dirty-compare base of one body kind (a lineage): the
// last committed chunked body of that kind (a delta body's refBuf keeps its
// dirty map), the snapshot it was committed as, and its chunks' end offsets
// and frame addresses, which plan reuses for every chunk it proves
// unchanged. The spare slices double-buffer addrs and cuts.
type chunkBase struct {
	body       *refBuf
	seq        uint64
	addrs      []string
	cuts       []int
	addrsSpare []string
	cutsSpare  []int
}

// drop forgets the base (its manifest is gone, or the manager is closing);
// the lineage's next save finds nothing to compare against.
func (b *chunkBase) drop() {
	b.body.release()
	b.body, b.addrs, b.cuts = nil, nil, nil
}

// persistChunked is the chunked persist: Plan, Chunks, HashWait and the
// manifest's Commit. Only the chunks plan cannot prove unchanged against
// the lineage's base are framed, hashed and offered to the chunk store, and
// the manifest commits only after every chunk it names is durable, so a
// crash can orphan chunks but never dangle a manifest. It returns what the
// chunks cost and the manifest's size. DESIGN.md §9 *Dirty-chunk protocol*
// says why reusing a base's addresses is sound.
func (m *Manager) persistChunked(job writeJob, l *ledger) (chunkWrite, int, error) {
	// The body's kind picks its lineage and its chunks' write class (a
	// placement policy may send delta tails to warm). Only a delta hands plan
	// its dirty map: an anchor's base is not the payload it was diffed against.
	lin, class, dirty := &m.bases[0], storage.ClassAnchorChunk, dirtyMap{}
	if job.h.Kind.Base() != KindFull {
		lin, class, dirty = &m.bases[1], storage.ClassDeltaChunk, job.body.dirty
	}
	var prev *chunkBase // nil with no committed body of this kind yet, or under fullIngest
	if !m.fullIngest && lin.body != nil {
		prev = lin
	}
	reuse, cuts := m.plan(job.body.b, m.rule, prev, lin.cutsSpare[:0], dirty)
	l.lap(&l.Plan)
	w, err := m.writeChunks(job.body.b, cuts, reuse, lin.addrsSpare, class)
	m.reuseSpare = reuse[:0]
	l.lap(&l.Chunks)
	job.h.Kind, job.h.PayloadHash = job.h.Kind.chunkedVariant(), job.hash.get()
	l.lap(&l.HashWait)
	var fileBytes int
	if err == nil {
		msp := getScratch()
		manifest := appendChunkManifest((*msp)[:0], len(job.body.b), m.rule, w.addrs)
		fileBytes, err = m.putSnapshot(job.name, job.h, manifest)
		*msp = manifest
		putScratch(msp)
	}
	if err != nil {
		// No manifest names the chunks, and the lineage keeps its base: that
		// manifest is still committed.
		m.release(&w, false)
		lin.addrsSpare, lin.cutsSpare = w.addrs[:0], cuts[:0]
		return chunkWrite{}, 0, err
	}
	// Under the gcGate read side a release lands before a sweep, which then
	// counts the manifest, or after it, the pins live at every delete check.
	m.shared.gcGate.RLock()
	m.shared.setRefs(m.ns+job.name, w.addrs)
	m.release(&w, true)
	m.shared.gcGate.RUnlock()
	// Adopt this body as its lineage's base, double-buffering the address
	// and cut slices so steady-state saves allocate neither.
	if m.fullIngest {
		lin.addrsSpare, lin.cutsSpare = w.addrs[:0], cuts[:0]
	} else {
		job.body.retain()
		lin.body.release()
		*lin = chunkBase{
			body: job.body, seq: job.h.Seq, addrs: w.addrs, cuts: cuts,
			addrsSpare: lin.addrs[:0], cutsSpare: lin.cuts[:0],
		}
	}
	return w, fileBytes, nil
}

// chunkWrite is what the Chunks stage leaves the commit: the body's chunk
// addresses in order, its counts, and the pins the commit or an abort
// releases — one per clean chunk, one per distinct dirty piece.
type chunkWrite struct {
	addrs     []string
	pieces    []chunkPiece // the distinct dirty pieces
	cleanPins []string
	clean     int // chunks plan reused
	dedup     int // intra-save duplicates collapsed before dispatch, plus store-level hits
	raws      int // distinct chunks framed raw
	total     int // chunk bytes newly written
}

// chunkPiece is one distinct dirty piece and what its chunk came to. Delta
// bodies are mostly zero runs, so one save usually repeats a chunk many
// times; framing each distinct piece once keeps concurrent workers from
// racing Ingest's exists-check on their own duplicates (harmless for the
// stored data, but it would double-write and skew the dedup stats). The
// manager keeps its pieces from save to save (Manager.pieceSpare).
type chunkPiece struct {
	piece   []byte
	class   storage.WriteClass
	addr    string // set once the chunk is pinned against concurrent GC
	written int
	raw     bool
	err     error
}

// chunkKeySeed keys the intra-save duplicate collapse. It only needs a
// cheap process-local discriminator (collisions fall back to a byte
// compare), so it uses maphash instead of a second SHA-256 pass over every
// chunk: the one content hash per chunk is of the framed bytes.
var chunkKeySeed = maphash.MakeSeed()

// writeChunks is the Chunks stage. It pins each address plan reused, and
// frames, hashes and ingests each distinct dirty piece on the worker pool;
// the pin comes before the store sees the chunk, because
// Manager.CollectOrphans re-checks live pins right before each delete, so
// the pin shields the chunk — written or dedup-hit, even an orphan of a
// deleted manifest — until the manifest commits. Its scratch is the
// manager's, so a steady-state save allocates nothing per chunk.
func (m *Manager) writeChunks(body []byte, cuts []int, reuse, addrs []string, class storage.WriteClass) (chunkWrite, error) {
	addrs = slices.Grow(addrs[:0], len(cuts))[:len(cuts)]
	// Room for every chunk to be distinct: a worker's piece never moves.
	w := chunkWrite{addrs: addrs, pieces: slices.Grow(m.pieceSpare[:0], len(cuts)), cleanPins: m.pinScratch[:0]}
	clear(m.pieceKeys)
	of := m.pieceOf[:0] // per chunk, 1 + its distinct piece; 0: reused
	for i, start := 0, 0; i < len(cuts); start, i = cuts[i], i+1 {
		if reused := reuse[i]; reused != "" {
			addrs[i] = reused
			m.shared.pins.pin(reused)
			w.cleanPins = append(w.cleanPins, reused)
			w.clean++
			of = append(of, 0)
			continue
		}
		piece := body[start:cuts[i]]
		key := maphash.Bytes(chunkKeySeed, piece)
		k, seen := m.pieceKeys[key]
		if !seen || !bytes.Equal(w.pieces[k].piece, piece) { // a collision frames the piece apart
			if k = len(w.pieces); !seen {
				m.pieceKeys[key] = k
			}
			w.pieces = append(w.pieces, chunkPiece{piece: piece, class: class})
			p := &w.pieces[k]
			if m.tasks == nil {
				m.frame(p)
			} else {
				m.framing.Add(1)
				m.tasks <- p
			}
		}
		of = append(of, k+1)
	}
	m.framing.Wait()
	m.pieceOf = of[:0]
	w.dedup = len(cuts) - w.clean // every dirty piece but the distinct ones that wrote
	for _, p := range w.pieces {
		if p.err != nil {
			return w, fmt.Errorf("core: write chunk: %w", p.err)
		}
		if w.total += p.written; p.written > 0 {
			w.dedup--
		}
		if p.raw {
			w.raws++
		}
	}
	for i, k := range of {
		if k > 0 {
			addrs[i] = w.pieces[k-1].addr
		}
	}
	return w, nil
}

// frame is one distinct dirty piece's share of the Chunks stage, run on a
// worker when there is a pool: frame the piece in scratch, hash it, pin
// the address and ingest the chunk.
func (m *Manager) frame(p *chunkPiece) {
	sp := getScratch()
	frame, err := appendChunkFrame((*sp)[:0], p.piece)
	if err == nil {
		p.addr = storage.Hash(frame)
		m.shared.pins.pin(p.addr)
		p.raw = frame[0] == chunkFrameRaw
		p.written, err = m.chunks.Ingest(p.addr, frame, p.class)
		*sp = frame
	}
	putScratch(sp)
	p.err = err
}

// release lets go of a save's pins. On commit it runs inside the gcGate
// read section, behind the manifest's entry in the reference index, and
// first records who paid for each chunk written, so a sweep never finds a
// charged chunk without its entry (creditSwept). On abort no manifest will
// ever name the chunks, and unless a remote store collects for itself the
// next retention pass gets the dirty ones as unclaimed — unpinned first: a
// sweep that finds one pinned forgets it.
func (m *Manager) release(w *chunkWrite, committed bool) {
	for _, a := range w.cleanPins {
		m.shared.pins.unpin(a)
	}
	for _, p := range w.pieces {
		if a := p.addr; a != "" {
			if committed {
				m.shared.recordChunkCharge(a, m.qos, int64(p.written))
			}
			m.shared.pins.unpin(a)
			if !committed && !m.shared.remote {
				m.shared.unclaimed(a)
			}
		}
	}
	clear(w.pieces) // the spare holds no piece of a body that may be recycled
	m.pinScratch, m.pieceSpare = w.cleanPins[:0], w.pieces[:0]
}

// plan is the Plan stage. It cuts body under rule p and returns the chunk
// end offsets, appended to cuts (the lineage retains them on commit), and a
// parallel reuse list naming the address prev — the body's lineage base,
// nil for none — holds for every chunk proven byte-identical ("" = dirty).
// The cuts are exactly appendCutpoints(body, p): nextCut restarts at every
// cutpoint, so a chunk's end depends only on its start and its own bytes.
// A chunk is adopted in place (unchanged at the same offsets; the old final
// chunk only when the bodies end together or it is a full maxSize chunk) or
// shifted (past a length change δ, every old chunk after a fresh cut that
// lands δ from an old one): DESIGN.md §9 *Dirty-chunk protocol*. dirty is
// body's map when body is a delta; two delta bodies of the same lengths are
// zero wherever neither map marks a granule, so such a chunk is adopted in
// place without the bytes.Equal.
func (m *Manager) plan(body []byte, p cdcParams, prev *chunkBase, cuts []int, dirty dirtyMap) ([]string, []int) {
	reuse := m.reuseSpare[:0]
	var (
		old      []byte
		oldCuts  []int
		oldAddrs []string
		was      dirtyMap
	)
	if prev != nil {
		old, oldCuts, oldAddrs = prev.body.b, prev.cuts, prev.addrs
		if dirty.gran > 0 && bytes.Equal(body[:deltaHeaderLen], old[:deltaHeaderLen]) {
			was = prev.body.dirty
		}
	}
	// zero reports whether the maps prove body[pos:end] zero in both bodies.
	zero := func(pos, end int) bool {
		lo, hi := max(pos, deltaHeaderLen)-deltaHeaderLen, end-deltaHeaderLen
		return was.clean(lo, hi) && dirty.clean(lo, hi)
	}
	delta := len(body) - len(old)
	resync := len(body) // fresh cuts from here on read the common suffix
	if delta != 0 {
		resync -= commonSuffixWords(body, old)
	}
	last := len(oldCuts) - 1
	for pos, j := 0, 0; pos < len(body); { // j: the old chunk that would start at pos
		if j <= last && (j == 0 && pos == 0 || j > 0 && oldCuts[j-1] == pos) {
			end := oldCuts[j]
			if end <= len(body) && (j < last || delta == 0 || end-pos == p.maxSize) && (zero(pos, end) || bytes.Equal(body[pos:end], old[pos:end])) {
				cuts = append(cuts, end)
				reuse = append(reuse, oldAddrs[j])
				pos, j = end, j+1
				continue
			}
		}
		pos += p.nextCut(body[pos:])
		cuts = append(cuts, pos)
		reuse = append(reuse, "")
		if pos >= resync && pos < len(body) {
			if k, ok := slices.BinarySearch(oldCuts, pos-delta); ok {
				for _, c := range oldCuts[k+1:] {
					cuts = append(cuts, c+delta)
				}
				reuse = append(reuse, oldAddrs[k+1:]...)
				break
			}
		}
		for j <= last && oldCuts[j] <= pos {
			j++
		}
	}
	return reuse, cuts
}
