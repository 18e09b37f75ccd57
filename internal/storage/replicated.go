package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
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
	clock    clock.Clock // times replica health: clock.Wall, or a test's fake

	// lamport is the Lamport clock behind envelope versions: bumped past
	// every version observed, incremented for every write.
	lamport atomic.Uint64

	// wg tracks straggler goroutines (late fan-out writes, read top-ups)
	// so Close can drain them.
	wg sync.WaitGroup
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

// observe records the outcome of one operation on rep, admitted at health
// generation gen, in its health; a failure is stamped on r's clock.
// ErrNotFound is an answer — the replica is reachable — not a failure.
func (r *Replicated) observe(rep *replica, gen int64, err error) {
	if err == nil || errors.Is(err, ErrNotFound) {
		rep.health.markSuccess(gen)
	} else {
		rep.health.markFailure(err, r.clock.Now())
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
	r := &Replicated{w: w, rq: n - w + 1, clock: clock.Wall}
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
// Range stays nil too: a ranged read is the quorum Get, clamped, which is
// what GetRange's fallback does. So does Occupancy: residency per level is
// a tiered store's account, and replicas are plain stores.
func (r *Replicated) Caps() CapSet {
	return CapSet{
		Batch:       r,
		Ingest:      r,
		ClassWrite:  r,
		ClassIngest: r,
		Replication: r.ReplicationInfo(),
	}
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

// Close drains straggler writes and repair top-ups.
func (r *Replicated) Close() error {
	r.wg.Wait()
	return nil
}

func (r *Replicated) bumpLamport(v uint64) {
	for {
		cur := r.lamport.Load()
		if cur >= v || r.lamport.CompareAndSwap(cur, v) {
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

// push writes raw, an envelope at version ver, to rep: the one replica
// write, behind the quorum fan-out, read-repair, its top-ups and
// anti-entropy. Like every replica operation it reports to health, and a
// failure flags the replica for repair.
func (r *Replicated) push(rep *replica, key string, ver uint64, raw []byte, class WriteClass) error {
	gen := rep.health.admit()
	err := rep.putOrdered(key, ver, raw, class)
	if r.observe(rep, gen, err); err != nil {
		rep.health.markDirty()
	}
	return err
}

// putOrdered is push's write. For mutable keys it is ordered per replica:
// once a newer version has been issued here, an older straggler is dropped
// instead of overwriting it — replica backends are last-write-wins byte
// stores, so without this a slow v1 fan-out could clobber an acked v2.
func (rep *replica) putOrdered(key string, ver uint64, raw []byte, class WriteClass) error {
	if _, chunk := ChunkKeyAddr(key); !chunk {
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
	now := r.clock.Now()
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
			ch <- r.push(rep, key, ver, raw, class)
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
		// Mutable keys read the current version first (the gather bumps the
		// Lamport clock past it) so a fresh instance over an existing store,
		// or a second instance on another node, overwrites above it instead
		// of under it. Chunk writes skip the round trip — they arrive
		// through the ingest path, which has already probed.
		r.probeGather(key)
	}
	ver := r.lamport.Add(1)
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

// holds reports whether this full-gather state already carries winner:
// the same version, kind and payload.
func (st *repState) holds(winner repState) bool {
	return st.err == nil && st.found && st.ver == winner.ver && st.tomb == winner.tomb &&
		bytes.Equal(st.payload(), winner.payload())
}

// settle fills st from one read of its replica admitted at gen, which
// returned data (the stored object, or its envelope header) and err, and
// reports the outcome to the replica's health.
func (r *Replicated) settle(st *repState, gen int64, data []byte, err error) {
	r.observe(st.rep, gen, err)
	switch {
	case errors.Is(err, ErrNotFound):
	case err != nil:
		st.err = err
	default:
		st.found = true
		var enveloped bool
		st.ver, st.tomb, _, enveloped = decodeEnvelope(data)
		st.bare = !enveloped
	}
}

// fetchFull reads rep's whole stored object at key.
func (r *Replicated) fetchFull(rep *replica, key string) repState {
	st := repState{rep: rep}
	gen := rep.health.admit()
	data, err := rep.b.Get(key)
	st.raw = data
	r.settle(&st, gen, data, err)
	return st
}

// fetchProbe reads rep's header-level state of key: a Stat for the size,
// then the envelope header.
func (r *Replicated) fetchProbe(rep *replica, key string) repState {
	st := repState{rep: rep}
	gen := rep.health.admit()
	info, err := rep.b.Stat(key)
	var hdr []byte
	if err == nil {
		// ErrNotFound here is a delete between the Stat and the header
		// read; definitively absent.
		hdr, err = GetRange(rep.b, key, 0, repHeaderSize)
	}
	r.settle(&st, gen, hdr, err)
	if st.size = info.Size; st.found && !st.bare {
		st.size -= repHeaderSize
	}
	return st
}

// gather fans fetch out to every replica and collects replies until a
// read-quorum has answered, bumping the Lamport clock past every version
// they carry. Beside those states it returns the channel the stragglers
// will still answer on and how many are pending; the channel is buffered
// for all of them, so a caller with no use for stragglers drops it.
func (r *Replicated) gather(key string, fetch func(*Replicated, *replica, string) repState) ([]repState, chan repState, int, error) {
	pending := len(r.replicas)
	ch := make(chan repState, pending)
	for _, rep := range r.replicas {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ch <- fetch(r, rep, key)
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
		r.bumpLamport(st.ver)
	}
	return answered, ch, pending, nil
}

// probeGather is the header-level gather (version, tombstone, size)
// behind Stat, Delete, ingest dedup and the pre-write version read.
func (r *Replicated) probeGather(key string) ([]repState, error) {
	states, _, _, err := r.gather(key, (*Replicated).fetchProbe)
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

// getChunk is the chunk-key read: replicas in health order, and the first
// one holding a live (present, not tombstoned) copy answers. Chunk bytes
// are immutable and content-addressed (the caller verifies the hash on
// dedup-sensitive paths), so one copy is enough. A NotFound verdict still
// requires a read-quorum of replicas to have answered — fewer means the
// chunk may live only on the unreachable ones.
func (r *Replicated) getChunk(key string) ([]byte, error) {
	answered := 0
	var lastErr error
	for _, rep := range r.ordered() {
		st := r.fetchFull(rep, key)
		if st.err != nil {
			lastErr = st.err
			continue
		}
		r.bumpLamport(st.ver)
		answered++
		if st.found && !st.tomb {
			return st.payload(), nil
		}
	}
	if answered < r.rq {
		return nil, fmt.Errorf("storage: read quorum %d/%d unreachable for %q: %w", answered, r.rq, key, lastErr)
	}
	return nil, ErrNotFound
}

// getMutable is the ABD-style quorum read: gather a read-quorum of full
// states, pick the winner by version, and write the winner back to a
// write-quorum *before* returning — without the synchronous write-back a
// later read through a different quorum could observe an older version,
// which is exactly the inversion the k-atomicity auditor would flag.
// Remaining stale replicas are topped up asynchronously.
func (r *Replicated) getMutable(key string) ([]byte, error) {
	answered, ch, pending, err := r.gather(key, (*Replicated).fetchFull)
	if err != nil {
		return nil, err
	}
	win := pickWinner(answered, true)
	if win < 0 {
		// Never written anywhere reachable; nothing to repair.
		return nil, ErrNotFound
	}
	winner := answered[win]
	if err := r.writeBack(key, winner, answered); err != nil {
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
	asked := make(map[*replica]bool, len(answered))
	// Stale responders first (we know they need it), then replicas that
	// had not answered by quorum time.
	var stale []*replica
	for _, st := range answered {
		asked[st.rep] = true
		if st.holds(winner) {
			holders++
		} else {
			stale = append(stale, st.rep)
		}
	}
	for _, rep := range r.replicas {
		if !asked[rep] {
			stale = append(stale, rep)
		}
	}
	var lastErr error
	for _, rep := range stale {
		if holders >= r.w {
			break
		}
		if err := r.push(rep, key, winner.ver, winner.raw, ClassDefault); err != nil {
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
	// The top-up outlives the read, whose caller owns the payload it got
	// back: compare and push a copy.
	winner.raw = bytes.Clone(winner.raw)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for range pending {
			st := <-ch
			if st.err != nil {
				continue
			}
			r.bumpLamport(st.ver)
			if !st.holds(winner) {
				r.push(st.rep, key, winner.ver, winner.raw, ClassDefault)
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
	ver := r.lamport.Add(1)
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
	ver := r.lamport.Add(1)
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
	keys, _, err := r.union(prefix)
	if err != nil {
		return nil, err
	}
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

// union lists prefix on every replica at once and returns the sorted union
// of the listings and how many replicas failed to answer; it fails only
// when none answered.
func (r *Replicated) union(prefix string) ([]string, int, error) {
	type listResult struct {
		keys []string
		err  error
	}
	ch := make(chan listResult, len(r.replicas))
	for _, rep := range r.replicas {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			gen := rep.health.admit()
			keys, err := rep.b.List(prefix)
			r.observe(rep, gen, err)
			ch <- listResult{keys, err}
		}()
	}
	seen := make(map[string]bool)
	failed := 0
	var firstErr error
	for range r.replicas {
		res := <-ch
		if res.err != nil {
			failed++
			firstErr = cmp.Or(firstErr, res.err)
			continue
		}
		for _, k := range res.keys {
			seen[k] = true
		}
	}
	if failed == len(r.replicas) {
		return nil, failed, fmt.Errorf("storage: no replica reachable for list: %w", firstErr)
	}
	return slices.Sorted(maps.Keys(seen)), failed, nil
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
	keys, listErrs, err := r.union("")
	if err != nil {
		return RepairStats{}, err
	}
	var errCount, pushed, pushedBytes atomic.Int64
	errCount.Add(int64(listErrs))
	forEachIndex(len(keys), 8, func(i int) {
		key := keys[i]
		states := make([]repState, len(r.replicas))
		for j, rep := range r.replicas {
			states[j] = r.fetchFull(rep, key)
			if states[j].err != nil {
				errCount.Add(1)
			}
			r.bumpLamport(states[j].ver)
		}
		win := pickWinner(states, true)
		if win < 0 {
			return
		}
		winner := states[win]
		for _, st := range states {
			if st.err != nil || st.holds(winner) || (winner.tomb && !st.found) {
				continue
			}
			if err := r.push(st.rep, key, winner.ver, winner.raw, ClassDefault); err != nil {
				errCount.Add(1)
				continue
			}
			pushed.Add(1)
			pushedBytes.Add(int64(len(winner.payload())))
		}
	})
	stats := RepairStats{Keys: len(keys), Pushed: int(pushed.Load()), PushedBytes: pushedBytes.Load(), Errors: int(errCount.Load())}
	if stats.Errors == 0 {
		for _, rep := range r.replicas {
			rep.health.clearRepair()
		}
	}
	return stats, nil
}
