package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Replicated is a composite Backend that writes every object to R replica
// backends and reads back at quorum, so a checkpoint survives the loss of
// a storage node, not just the process. The write path fans out in
// parallel and succeeds at write-quorum W, letting slow or dead replicas
// catch up asynchronously; the read path is split by key shape:
//
//   - Content-addressed chunk keys ("…/ab/<64-hex>") are immutable and
//     self-verifying, so reads take a first-success scan in health order —
//     one replica answering is enough.
//   - Mutable keys (manifests, latest pointers) get ABD-style quorum
//     reads: every stored object carries a versioned envelope, the read
//     gathers a read-quorum of replies, returns the highest version, and
//     synchronously write-backs that winner to a write-quorum before
//     returning so a later read can never observe an older value.
//
// Deletes are tombstone writes at the next version — a plain per-replica
// delete would let a lagging replica resurrect the object at the next
// quorum read (exactly the stale-shadow-copy bug class this store
// exists to prevent). Tombstoned keys are filtered out of List via the
// same winner rule.
//
// Per-replica health (consecutive-failure threshold, probe interval,
// failure-domain label) takes a down replica's domain out of the write
// fan-out; a recovered replica rejoins on its next success and is healed
// by Repair — an anti-entropy pass that diffs the union of replica
// listings and pushes each key's winning version to lagging replicas.
//
// Replicated does not forward OrphanCollector: a per-replica collector
// would reap chunks it cannot see manifests for. GC must run above the
// replicated view, where List is the union of all replicas — that is the
// invariant that makes the sweep safe when a manifest is visible on only
// a quorum.
type Replicated struct {
	replicas []*replica
	w        int // write quorum
	rq       int // read quorum, n - w + 1
	domains  []string

	// clock is the Lamport clock behind envelope versions: bumped past
	// every version observed, incremented for every write.
	clock atomic.Uint64

	// wg tracks straggler goroutines (late fan-out writes, read top-ups)
	// so Close can drain them.
	wg sync.WaitGroup

	hasOcc bool
}

// Replica configures one member of a Replicated set.
type Replica struct {
	Backend Backend
	// Domain is the failure-domain label ("zone-a", "disk-2"); defaults
	// to "replica-<i>".
	Domain string
}

// ReplicatedOptions tunes quorum geometry and health tracking. The zero
// WriteQuorum picks the majority, W = n/2+1; the read quorum is always
// n-W+1, the smallest that overlaps every write quorum.
type ReplicatedOptions struct {
	WriteQuorum int
	// FailureThreshold is the consecutive-failure count that marks a
	// replica down (default 3); ProbeInterval is how long a down replica
	// rests between retry probes (default 2s).
	FailureThreshold int
	ProbeInterval    time.Duration
}

// replica is one member plus its health and write-ordering state.
type replica struct {
	b      Backend
	domain string
	health *replicaHealth

	// stripes order this instance's mutable-key writes per replica: a
	// straggler carrying version v must never overwrite a version > v
	// that already landed. Chunk keys skip this (immutable content).
	stripes [verStripes]verStripe
}

// observe records the outcome of one operation on this replica, admitted
// at health generation gen, in its health. ErrNotFound is an answer — the
// replica is reachable — not a failure.
func (rep *replica) observe(gen int64, err error) {
	if err == nil || errors.Is(err, ErrNotFound) {
		rep.health.markSuccess(gen)
	} else {
		rep.health.markFailure(err)
	}
}

const verStripes = 16

type verStripe struct {
	mu  sync.Mutex
	ver map[string]uint64
}

// The envelope every replicated object is stored in: magic, flags, and a
// version the quorum read resolves winners by. Payload bytes follow.
//
//	offset 0..3   magic "QRP1"
//	offset 4      flags (bit0 = tombstone)
//	offset 5..7   reserved (zero)
//	offset 8..15  version, big-endian
const (
	repMagic         = "QRP1"
	repHeaderSize    = 16
	repFlagTombstone = 0x01
)

func encodeEnvelope(ver uint64, tomb bool, payload []byte) []byte {
	raw := make([]byte, repHeaderSize+len(payload))
	copy(raw, repMagic)
	if tomb {
		raw[4] = repFlagTombstone
	}
	binary.BigEndian.PutUint64(raw[8:16], ver)
	copy(raw[repHeaderSize:], payload)
	return raw
}

// decodeEnvelope splits a stored object. Bytes without the magic are
// treated as a bare version-0 payload, so a Replicated opened over
// pre-existing plain data stays readable.
func decodeEnvelope(raw []byte) (ver uint64, tomb bool, payload []byte, enveloped bool) {
	if len(raw) < repHeaderSize || string(raw[:4]) != repMagic {
		return 0, false, raw, false
	}
	return binary.BigEndian.Uint64(raw[8:16]), raw[4]&repFlagTombstone != 0, raw[repHeaderSize:], true
}

// NewReplicated builds a replicated backend over the given members.
func NewReplicated(opts ReplicatedOptions, members ...Replica) (*Replicated, error) {
	n := len(members)
	if n == 0 {
		return nil, errors.New("storage: replicated backend needs at least one replica")
	}
	w := opts.WriteQuorum
	if w == 0 {
		w = n/2 + 1
	}
	if w < 1 || w > n {
		return nil, fmt.Errorf("storage: write quorum %d out of range for %d replicas", w, n)
	}
	r := &Replicated{w: w, rq: n - w + 1}
	for i, m := range members {
		if m.Backend == nil {
			return nil, fmt.Errorf("storage: replica %d without a backend", i)
		}
		dom := m.Domain
		if dom == "" {
			dom = fmt.Sprintf("replica-%d", i)
		}
		r.replicas = append(r.replicas, &replica{
			b:      m.Backend,
			domain: dom,
			health: newReplicaHealth(opts.FailureThreshold, opts.ProbeInterval),
		})
		r.domains = append(r.domains, dom)
		if Caps(m.Backend).Occupancy != nil {
			r.hasOcc = true
		}
	}
	return r, nil
}

// NewReplicatedDir builds an n-way replicated store of Local backends
// under dir (each replica in dir/.replica-<i>; dot-prefixed so a plain
// Local over dir never lists them). w=0 picks a majority write quorum.
func NewReplicatedDir(dir string, n, w int) (*Replicated, error) {
	if n < 1 {
		return nil, fmt.Errorf("storage: replica count %d out of range", n)
	}
	members := make([]Replica, n)
	for i := range members {
		l, err := NewLocal(filepath.Join(dir, fmt.Sprintf(".replica-%d", i)))
		if err != nil {
			return nil, err
		}
		members[i] = Replica{Backend: l, Domain: fmt.Sprintf("disk-%d", i)}
	}
	return NewReplicated(ReplicatedOptions{WriteQuorum: w}, members...)
}

// Name implements Backend.
func (r *Replicated) Name() string {
	return fmt.Sprintf("replicated(%dx%s,W=%d,R=%d)", len(r.replicas), r.replicas[0].b.Name(), r.w, r.rq)
}

// Capabilities implements Backend: atomic/persistent only if every
// replica is, modeled if any is.
func (r *Replicated) Capabilities() Capabilities {
	c := Capabilities{Atomic: true, Persistent: true}
	for _, rep := range r.replicas {
		rc := rep.b.Capabilities()
		c.Atomic = c.Atomic && rc.Atomic
		c.Persistent = c.Persistent && rc.Persistent
		c.Modeled = c.Modeled || rc.Modeled
	}
	return c
}

// Caps implements CapsReporter. Orphans stays nil on purpose: orphan
// collection must run over the replicated union view, never per replica.
func (r *Replicated) Caps() CapSet {
	c := CapSet{
		Range:       r,
		Batch:       r,
		Ingest:      r,
		ClassWrite:  r,
		ClassIngest: r,
		Replication: r.ReplicationInfo(),
	}
	if r.hasOcc {
		c.Occupancy = r
	}
	return c
}

// ReplicationInfo implements Replicator. Callers must not mutate Domains.
func (r *Replicated) ReplicationInfo() ReplicationInfo {
	return ReplicationInfo{
		Replicas:    len(r.replicas),
		WriteQuorum: r.w,
		ReadQuorum:  r.rq,
		Domains:     r.domains,
	}
}

// Health reports each replica's current status, fan-out order.
func (r *Replicated) Health() []ReplicaStatus {
	out := make([]ReplicaStatus, len(r.replicas))
	for i, rep := range r.replicas {
		out[i] = rep.health.snapshot(i, rep.b.Name(), rep.domain)
	}
	return out
}

// Occupancy forwards to the first healthy replica that reports it — the
// replicas converge on the same contents, so one view is representative.
func (r *Replicated) Occupancy() ([]LevelOccupancy, error) {
	for _, rep := range r.ordered() {
		if oc := Caps(rep.b).Occupancy; oc != nil {
			occ, err := oc.Occupancy()
			if err == nil {
				return occ, nil
			}
		}
	}
	return nil, errors.New("storage: no replica reports occupancy")
}

// Close drains straggler writes and repair top-ups.
func (r *Replicated) Close() error {
	r.wg.Wait()
	return nil
}

func (r *Replicated) bumpClock(v uint64) {
	for {
		cur := r.clock.Load()
		if cur >= v || r.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ordered returns replicas up-first (in index order), down ones last, so
// first-success scans hit healthy members before probing sick ones.
func (r *Replicated) ordered() []*replica {
	up := make([]*replica, 0, len(r.replicas))
	var down []*replica
	for _, rep := range r.replicas {
		if rep.health.up() {
			up = append(up, rep)
		} else {
			down = append(down, rep)
		}
	}
	return append(up, down...)
}

func stripeFor(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % verStripes)
}

// putOrdered writes raw (an envelope at version ver) to this replica.
// For mutable keys the write is ordered per replica: once a newer version
// has been issued here, an older straggler is dropped instead of
// overwriting it — replica backends are last-write-wins byte stores, so
// without this a slow v1 fan-out could clobber an acked v2.
func (rep *replica) putOrdered(key string, ver uint64, raw []byte, class WriteClass, mutable bool) error {
	if mutable {
		s := &rep.stripes[stripeFor(key)]
		s.mu.Lock()
		defer s.mu.Unlock()
		if last, ok := s.ver[key]; ok && last > ver {
			return nil
		}
		if s.ver == nil {
			s.ver = make(map[string]uint64)
		}
		s.ver[key] = ver
	}
	return PutClass(rep.b, key, raw, class)
}

// quorumWrite fans raw out to the replica set and returns once W acks
// arrive; stragglers finish in the background (tracked for Close) and
// failures mark the replica dirty for anti-entropy repair. Down replicas
// sit the write out — their domain is degraded — unless they are needed
// to reach quorum at all.
func (r *Replicated) quorumWrite(key string, ver uint64, raw []byte, class WriteClass) error {
	_, chunk := ChunkKeyAddr(key)
	now := time.Now()
	targets := make([]*replica, 0, len(r.replicas))
	var skipped []*replica
	for _, rep := range r.replicas {
		if rep.health.usable(now) {
			targets = append(targets, rep)
		} else {
			skipped = append(skipped, rep)
		}
	}
	if len(targets) < r.w {
		targets = append(targets, skipped...)
		skipped = nil
	}
	for _, rep := range skipped {
		rep.health.markDirty()
	}
	ch := make(chan error, len(targets))
	for _, rep := range targets {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			gen := rep.health.admit()
			err := rep.putOrdered(key, ver, raw, class, !chunk)
			if rep.observe(gen, err); err != nil {
				rep.health.markDirty()
			}
			ch <- err
		}()
	}
	succ, fail := 0, 0
	var firstErr error
	for i := 0; i < len(targets); i++ {
		err := <-ch
		if err == nil {
			succ++
			if succ >= r.w {
				return nil
			}
		} else {
			fail++
			if firstErr == nil {
				firstErr = err
			}
			if fail > len(targets)-r.w {
				break
			}
		}
	}
	return fmt.Errorf("storage: write quorum %d/%d unreachable for %q: %w", succ, r.w, key, firstErr)
}

// Put implements Backend.
func (r *Replicated) Put(key string, data []byte) error {
	return r.PutClass(key, data, ClassDefault)
}

// PutClass implements ClassWriter; the class rides through to each
// replica so a tiered replica still places the write correctly.
func (r *Replicated) PutClass(key string, data []byte, class WriteClass) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if _, chunk := ChunkKeyAddr(key); !chunk {
		// Mutable keys read the current version first so a fresh instance
		// over an existing store (or a second instance on another node)
		// overwrites above it instead of under it. Chunk writes skip the
		// round trip — they arrive through the ingest path, which has
		// already probed.
		if states, err := r.probeGather(key); err == nil {
			for _, st := range states {
				r.bumpClock(st.ver)
			}
		}
	}
	ver := r.clock.Add(1)
	// The envelope is a fresh allocation: Put must not retain data, whose
	// buffer the save pipeline recycles the moment we return, while
	// straggler fan-out writes are still in flight.
	raw := encodeEnvelope(ver, false, data)
	return r.quorumWrite(key, ver, raw, class)
}

// repState is one replica's view of a key during a quorum gather.
type repState struct {
	rep   *replica
	err   error // non-nil: replica unreachable, nothing below is valid
	found bool
	ver   uint64
	tomb  bool
	bare  bool
	raw   []byte // full stored object (full gathers only)
	size  int64  // logical payload size (probe gathers only)
}

// payload returns the logical bytes of a full-gather state.
func (st *repState) payload() []byte {
	if st.bare {
		return st.raw
	}
	return st.raw[repHeaderSize:]
}

// fetchFull reads rep's whole stored object at key.
func fetchFull(rep *replica, key string) repState {
	st := repState{rep: rep}
	gen := rep.health.admit()
	data, err := rep.b.Get(key)
	rep.observe(gen, err)
	switch {
	case errors.Is(err, ErrNotFound):
	case err != nil:
		st.err = err
	default:
		st.found = true
		st.raw = data
		var enveloped bool
		st.ver, st.tomb, _, enveloped = decodeEnvelope(data)
		st.bare = !enveloped
	}
	return st
}

// fetchProbe reads rep's header-level state of key: a Stat for the size,
// then the envelope header.
func fetchProbe(rep *replica, key string) repState {
	st := repState{rep: rep}
	gen := rep.health.admit()
	info, err := rep.b.Stat(key)
	var hdr []byte
	if err == nil {
		// ErrNotFound here is a delete between the Stat and the header
		// read; definitively absent.
		hdr, err = GetRange(rep.b, key, 0, repHeaderSize)
	}
	rep.observe(gen, err)
	switch {
	case errors.Is(err, ErrNotFound):
	case err != nil:
		st.err = err
	default:
		st.found = true
		var enveloped bool
		st.ver, st.tomb, _, enveloped = decodeEnvelope(hdr)
		st.bare = !enveloped
		st.size = info.Size
		if enveloped {
			st.size = info.Size - repHeaderSize
		}
	}
	return st
}

// gather fans fetch out to every replica and collects replies until a
// read-quorum has answered, bumping the clock past every version they
// carry. Beside those states it returns the channel the stragglers will
// still answer on and how many are pending; the channel is buffered for
// all of them, so a caller with no use for stragglers drops it.
func (r *Replicated) gather(key string, fetch func(*replica, string) repState) ([]repState, chan repState, int, error) {
	pending := len(r.replicas)
	ch := make(chan repState, pending)
	for _, rep := range r.replicas {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ch <- fetch(rep, key)
		}()
	}
	var answered []repState
	var firstErr error
	for pending > 0 && len(answered) < r.rq {
		st := <-ch
		pending--
		if st.err == nil {
			answered = append(answered, st)
		} else if firstErr == nil {
			firstErr = st.err
		}
	}
	if len(answered) < r.rq {
		return nil, nil, 0, fmt.Errorf("storage: read quorum %d/%d unreachable for %q: %w", len(answered), r.rq, key, firstErr)
	}
	for _, st := range answered {
		r.bumpClock(st.ver)
	}
	return answered, ch, pending, nil
}

// probeGather is the header-level gather (version, tombstone, size)
// behind Stat, Delete, ingest dedup and the pre-write version read.
func (r *Replicated) probeGather(key string) ([]repState, error) {
	states, _, _, err := r.gather(key, fetchProbe)
	return states, err
}

// pickWinner returns the index of the winning state: highest version,
// ties broken by payload hash on full gathers (deterministic across
// instances), data preferred over tombstones otherwise. -1 if no state
// holds the key.
func pickWinner(states []repState, full bool) int {
	win := -1
	for i := range states {
		st := &states[i]
		if st.err != nil || !st.found {
			continue
		}
		if win < 0 {
			win = i
			continue
		}
		w := &states[win]
		switch {
		case st.ver > w.ver:
			win = i
		case st.ver < w.ver:
		case full && !bytes.Equal(st.payload(), w.payload()):
			if Hash(st.payload()) > Hash(w.payload()) {
				win = i
			}
		case !full && w.tomb && !st.tomb:
			win = i
		}
	}
	return win
}

// Get implements Backend.
func (r *Replicated) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	if _, chunk := ChunkKeyAddr(key); chunk {
		return r.getChunk(key)
	}
	return r.getMutable(key)
}

// firstLive is the chunk-key read walk: replicas in health order, each
// asked for its state of key by fetch, and the first one holding a live
// (present, not tombstoned) copy whose read succeeds answers. Chunk bytes
// are immutable and content-addressed (the caller verifies the hash on
// dedup-sensitive paths), so one copy is enough. A NotFound verdict still
// requires a read-quorum of replicas to have answered — fewer means the
// chunk may live only on the unreachable ones.
func (r *Replicated) firstLive(key string, fetch func(*replica, string) repState, read func(repState) ([]byte, error)) ([]byte, error) {
	answered := 0
	var lastErr error
	for _, rep := range r.ordered() {
		st := fetch(rep, key)
		if st.err != nil {
			lastErr = st.err
			continue
		}
		answered++
		if !st.found || st.tomb {
			continue
		}
		data, err := read(st)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	if answered < r.rq {
		return nil, fmt.Errorf("storage: read quorum %d/%d unreachable for %q: %w", answered, r.rq, key, lastErr)
	}
	return nil, ErrNotFound
}

// getChunk is the first-success fast path for whole chunk reads.
func (r *Replicated) getChunk(key string) ([]byte, error) {
	return r.firstLive(key, func(rep *replica, key string) repState {
		st := fetchFull(rep, key)
		r.bumpClock(st.ver)
		return st
	}, func(st repState) ([]byte, error) { return st.payload(), nil })
}

// getMutable is the ABD-style quorum read: gather a read-quorum of full
// states, pick the winner by version, and write the winner back to a
// write-quorum *before* returning — without the synchronous write-back a
// later read through a different quorum could observe an older version,
// which is exactly the inversion the k-atomicity auditor would flag.
// Remaining stale replicas are topped up asynchronously.
func (r *Replicated) getMutable(key string) ([]byte, error) {
	answered, ch, pending, err := r.gather(key, fetchFull)
	if err != nil {
		return nil, err
	}
	win := pickWinner(answered, true)
	if win < 0 {
		// Never written anywhere reachable; nothing to repair.
		r.drainTopUp(key, ch, pending, repState{})
		return nil, ErrNotFound
	}
	winner := answered[win]
	if err := r.writeBack(key, winner, answered); err != nil {
		r.drainTopUp(key, ch, pending, repState{})
		return nil, err
	}
	r.drainTopUp(key, ch, pending, winner)
	if winner.tomb {
		return nil, ErrNotFound
	}
	return winner.payload(), nil
}

// writeBack synchronously pushes the winning version until a write-quorum
// of replicas holds it. Replicas already holding the winner count; the
// rest are tried stale-responders first, then everyone else.
func (r *Replicated) writeBack(key string, winner repState, answered []repState) error {
	holders := 0
	holds := make(map[*replica]bool, len(answered))
	for _, st := range answered {
		if st.err == nil && st.found && st.ver == winner.ver && st.tomb == winner.tomb {
			holders++
			holds[st.rep] = true
		}
	}
	if holders >= r.w {
		return nil
	}
	_, chunk := ChunkKeyAddr(key)
	// Stale responders first (we know they need it), then replicas that
	// had not answered by quorum time.
	var candidates []*replica
	for _, st := range answered {
		if !holds[st.rep] {
			candidates = append(candidates, st.rep)
		}
	}
	for _, rep := range r.replicas {
		inAnswered := false
		for _, st := range answered {
			if st.rep == rep {
				inAnswered = true
				break
			}
		}
		if !inAnswered {
			candidates = append(candidates, rep)
		}
	}
	var lastErr error
	for _, rep := range candidates {
		if holders >= r.w {
			break
		}
		gen := rep.health.admit()
		err := rep.putOrdered(key, winner.ver, winner.raw, ClassDefault, !chunk)
		if rep.observe(gen, err); err != nil {
			rep.health.markDirty()
			lastErr = err
			continue
		}
		holders++
	}
	if holders < r.w {
		return fmt.Errorf("storage: read-repair could not reach write quorum %d/%d for %q: %w", holders, r.w, key, lastErr)
	}
	return nil
}

// drainTopUp consumes the gather's straggler responses in the background
// and pushes the winner to any that turned out stale.
func (r *Replicated) drainTopUp(key string, ch chan repState, pending int, winner repState) {
	if pending == 0 {
		return
	}
	_, chunk := ChunkKeyAddr(key)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for i := 0; i < pending; i++ {
			st := <-ch
			if st.err != nil || winner.raw == nil {
				continue
			}
			r.bumpClock(st.ver)
			if st.found && st.ver == winner.ver && st.tomb == winner.tomb {
				continue
			}
			if err := st.rep.putOrdered(key, winner.ver, winner.raw, ClassDefault, !chunk); err != nil {
				st.rep.health.markDirty()
			}
		}
	}()
}

// Delete implements Backend: a quorum existence check followed by a
// tombstone write at the next version. The tombstone is what keeps a
// lagging replica's stale copy from resurrecting the key at a later
// quorum read; Repair eventually spreads it everywhere.
func (r *Replicated) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	states, err := r.probeGather(key)
	if err != nil {
		return err
	}
	win := pickWinner(states, false)
	if win < 0 || states[win].tomb {
		return ErrNotFound
	}
	ver := r.clock.Add(1)
	raw := encodeEnvelope(ver, true, nil)
	return r.quorumWrite(key, ver, raw, ClassDefault)
}

// Stat implements Backend: a quorum winner probe for every key shape.
// Chunk keys do NOT get the first-success shortcut here — Stat is the
// existence oracle behind dedup and GC, and a first-success answer could
// race a quorum delete's straggler tombstone (the intersection of a
// read-quorum with the delete's write-quorum always holds the
// tombstone). Sizes are logical payload sizes (the envelope is
// invisible to callers).
func (r *Replicated) Stat(key string) (ObjectInfo, error) {
	if err := ValidateKey(key); err != nil {
		return ObjectInfo{}, err
	}
	states, err := r.probeGather(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	win := pickWinner(states, false)
	if win < 0 || states[win].tomb {
		return ObjectInfo{}, ErrNotFound
	}
	return ObjectInfo{Key: key, Size: states[win].size}, nil
}

// GetRange implements RangeReader. Chunk keys translate the range past
// the envelope on the first live replica; mutable keys resolve the
// quorum winner and slice it — correctness over cleverness, since
// ranged reads of mutable keys are header peeks on small manifests.
func (r *Replicated) GetRange(key string, off, n int64) ([]byte, error) {
	if err := validRange(off, n); err != nil {
		return nil, err
	}
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	if _, chunk := ChunkKeyAddr(key); chunk {
		return r.firstLive(key, fetchProbe, func(st repState) ([]byte, error) {
			base := int64(0)
			if !st.bare {
				base = repHeaderSize
			}
			return GetRange(st.rep.b, key, base+off, n)
		})
	}
	data, err := r.getMutable(key)
	if err != nil {
		return nil, err
	}
	return clampRange(data, off, n), nil
}

// forEachIndex runs fn(i) for every i in [0, n) on at most workers
// goroutines (inline when one suffices) and returns when all are done.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// GetBatch implements BatchReader with a small worker pool of quorum
// Gets; results and errors are positional.
func (r *Replicated) GetBatch(keys []string) ([][]byte, []error) {
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	forEachIndex(len(keys), 4, func(i int) { out[i], errs[i] = r.Get(keys[i]) })
	return out, errs
}

// IngestKeyed implements AddressedIngester: the quorum existence probe
// is the dedup decision, so a chunk present at quorum is never
// re-uploaded to every replica.
func (r *Replicated) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return r.IngestKeyedClass(key, addr, data, ClassDefault)
}

// IngestKeyedClass implements KeyedClassIngester.
func (r *Replicated) IngestKeyedClass(key, addr string, data []byte, class WriteClass) (int, bool, error) {
	if err := ValidateKey(key); err != nil {
		return 0, true, err
	}
	states, err := r.probeGather(key)
	if err != nil {
		return 0, true, err
	}
	if win := pickWinner(states, false); win >= 0 && !states[win].tomb {
		return 0, true, nil
	}
	ver := r.clock.Add(1)
	raw := encodeEnvelope(ver, false, data)
	if err := r.quorumWrite(key, ver, raw, class); err != nil {
		return 0, true, err
	}
	return len(data), true, nil
}

// List implements Backend: the union of every reachable replica's
// listing — a key visible on only a quorum (or only one lagging replica)
// must stay visible, or GC above this store would reap live chunks —
// minus keys whose winning version is a tombstone.
func (r *Replicated) List(prefix string) ([]string, error) {
	n := len(r.replicas)
	type listResult struct {
		keys []string
		err  error
	}
	ch := make(chan listResult, n)
	for _, rep := range r.replicas {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			gen := rep.health.admit()
			keys, err := rep.b.List(prefix)
			rep.observe(gen, err)
			ch <- listResult{keys, err}
		}()
	}
	union := make(map[string]bool)
	answered := 0
	var firstErr error
	for i := 0; i < n; i++ {
		res := <-ch
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		answered++
		for _, k := range res.keys {
			union[k] = true
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("storage: no replica reachable for list: %w", firstErr)
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Filter tombstoned winners. Every stored tombstone is itself a
	// listed object, so each key needs a winner probe; unresolvable keys
	// (probe quorum lost mid-list) stay visible — for GC it is always
	// safer to over-list than to hide a live object.
	keep := make([]bool, len(keys))
	forEachIndex(len(keys), 8, func(i int) {
		states, err := r.probeGather(keys[i])
		if err != nil {
			keep[i] = true
			return
		}
		win := pickWinner(states, false)
		keep[i] = win >= 0 && !states[win].tomb
	})
	out := keys[:0]
	for i, k := range keys {
		if keep[i] {
			out = append(out, k)
		}
	}
	return out, nil
}

// RepairStats summarizes one anti-entropy pass.
type RepairStats struct {
	// Keys is the number of distinct keys scanned (union of replicas).
	Keys int
	// Pushed counts winner copies written to lagging replicas;
	// PushedBytes is their payload volume.
	Pushed      int
	PushedBytes int64
	// Errors counts replica operations that failed during the pass.
	Errors int
}

// Repair runs anti-entropy: diff the union of replica listings, resolve
// each key's winner, and push it to every replica that is missing it or
// holds an older version. Tombstone winners are pushed only over stale
// live copies (an absent key needs no tombstone). A clean pass clears
// every replica's NeedsRepair flag.
func (r *Replicated) Repair() (RepairStats, error) {
	var stats RepairStats
	union := make(map[string]bool)
	listErrs := 0
	for _, rep := range r.replicas {
		gen := rep.health.admit()
		keys, err := rep.b.List("")
		if rep.observe(gen, err); err != nil {
			listErrs++
			continue
		}
		for _, k := range keys {
			union[k] = true
		}
	}
	if listErrs == len(r.replicas) {
		return stats, errors.New("storage: repair: no replica reachable")
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	stats.Keys = len(keys)

	var mu sync.Mutex
	errCount := int64(listErrs)
	forEachIndex(len(keys), 8, func(i int) {
		key := keys[i]
		_, chunk := ChunkKeyAddr(key)
		states := make([]repState, len(r.replicas))
		for j, rep := range r.replicas {
			states[j] = fetchFull(rep, key)
			if states[j].err != nil {
				atomic.AddInt64(&errCount, 1)
			}
			r.bumpClock(states[j].ver)
		}
		win := pickWinner(states, true)
		if win < 0 {
			return
		}
		winner := states[win]
		for j := range states {
			st := &states[j]
			if st.err != nil || st.rep == winner.rep {
				continue
			}
			inSync := st.found && st.ver == winner.ver && st.tomb == winner.tomb &&
				bytes.Equal(st.payload(), winner.payload())
			if inSync {
				continue
			}
			if winner.tomb && !st.found {
				continue
			}
			gen := st.rep.health.admit()
			err := st.rep.putOrdered(key, winner.ver, winner.raw, ClassDefault, !chunk)
			if st.rep.observe(gen, err); err != nil {
				atomic.AddInt64(&errCount, 1)
				continue
			}
			mu.Lock()
			stats.Pushed++
			stats.PushedBytes += int64(len(winner.payload()))
			mu.Unlock()
		}
	})
	stats.Errors = int(errCount)
	if stats.Errors == 0 {
		for _, rep := range r.replicas {
			rep.health.clearRepair()
		}
	}
	return stats, nil
}
