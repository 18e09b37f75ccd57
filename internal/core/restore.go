package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Streaming restore engine: restore latency decides how much work a failure
// wastes. The engine shares chunk fetch and decompression between the
// restoring goroutine and a bounded set of helpers while the restoring
// goroutine alone hands the pieces to a visitor
// in manifest order — appended into a preallocated buffer for an anchor,
// XORed in place into the running payload for a delta link — and chain
// resolution warms the next delta's chunks while the current one applies.
// A serial restore is the one-worker case: no helpers, no goroutines.
// Correctness invariants:
//
//   - Ordered visits: pieces reach the visitor strictly in manifest order,
//     whoever fetched them and in whatever order the fetches finish, so the
//     recovered body is bitwise-identical under any worker count.
//   - Each address once: a manifest that names an address many times (a
//     delta body repeats the all-zero chunk heavily) fetches and unframes
//     it once; repeats share the piece, which is held until its last use.
//   - Pieces are bounded, not believed: a clean recovery reads frames without
//     hashing them against their addresses (recovery.go), so a frame's length
//     that disagrees with its bytes, or exceeds the manifest's whole body, is
//     ErrCorrupt, and visitors place pieces by checked lengths alone.
//   - Bounded window: at most Workers+Prefetch distinct chunks past the
//     commit frontier are claimed (being fetched, or fetched and waiting
//     for their turn), so restoring an arbitrarily large snapshot holds a
//     bounded working set beyond the output buffer itself.
//   - The caller works: the restoring goroutine is worker number one. It
//     sleeps only when the chunk at the frontier is in a helper's hands and
//     nothing further ahead may be claimed; otherwise it fetches the next
//     unclaimed chunk itself. A handoff between CPUs costs about as much
//     as fetching a chunk from a warm store and far more on a busy host,
//     so the restore's critical path must not contain one per chunk, and a
//     helper that is slow to be scheduled delays nothing but the one chunk
//     it holds.
//   - First-error cancellation: the walk surfaces the failure of the
//     lowest-index failing chunk — deterministic under any scheduling —
//     closes the cancel gate, and waits for every helper to drain before
//     returning, so a failed restore leaks no goroutines.
//   - Read-only pieces: a piece is shared by every entry that repeats its
//     address, a raw chunk's piece aliases the frame the store handed out
//     and a compressed chunk's is pooled scratch that goes back to its pool
//     after the address's last entry, so visitors copy or XOR from a piece,
//     never write to it and never keep it past the visit. A walk that ends
//     early puts back what its helpers still held.

// RestoreOptions tunes the streaming restore engine. The zero value
// restores with one worker and no chain prefetch.
type RestoreOptions struct {
	// Workers is how many goroutines fetch and decompress chunks, the
	// restoring goroutine included. Values <= 1 restore on that goroutine
	// alone.
	Workers int
	// Prefetch bounds how many chunks beyond the ordered reassembly
	// frontier may be in flight in addition to the Workers currently
	// executing. <= 0 defaults to 2×Workers.
	Prefetch int
}

// DefaultRestoreOptions sizes the engine to the machine: one worker
// per CPU (decompression is the CPU-bound half of a restore) with the
// default prefetch window.
func DefaultRestoreOptions() RestoreOptions {
	return RestoreOptions{Workers: runtime.NumCPU()}
}

// workers is the number of fetching goroutines: at least the caller.
func (o RestoreOptions) workers() int { return max(o.Workers, 1) }

// parallel reports whether chain resolution should warm the next link in
// the background.
func (o RestoreOptions) parallel() bool { return o.Workers > 1 }

// window is the bound on chunks claimed past the commit frontier.
func (o RestoreOptions) window() int {
	pf := o.Prefetch
	if pf <= 0 {
		pf = 2 * o.workers()
	}
	return o.workers() + pf
}

// fetchChunk is the unit of restore work: one chunk read, content-verified
// against its address unless unchecked, plus its unframing (raw pass-through,
// or exact-size decompression into the pooled scratch returned beside the
// piece — decodeChunkFrame, no piece longer than limit). Both failure modes
// wrap ErrCorrupt so recovery falls back to an older snapshot instead of
// treating the directory as unreadable. frameLen is what a check hashed.
func fetchChunk(cs *storage.ChunkStore, addr string, limit int, unchecked bool) (piece []byte, scratch *[]byte, frameLen int, err error) {
	read := cs.Get
	if unchecked {
		read = cs.GetUnchecked
	}
	frame, err := read(addr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: chunk %.12s…: %v", ErrCorrupt, addr, err)
	}
	piece, scratch, err = decodeChunkFrame(frame, limit)
	return piece, scratch, len(frame), err
}

// distinctAddrs returns the distinct addresses of a manifest in order of
// first occurrence, and for every manifest entry the index of its address
// in that list.
func distinctAddrs(addrs []string) (distinct []string, ids []int) {
	ids = make([]int, len(addrs))
	seen := make(map[string]int)
	for i, a := range addrs {
		d, ok := seen[a]
		if !ok {
			d = len(distinct)
			seen[a] = d
			distinct = append(distinct, a)
		}
		ids[i] = d
	}
	return distinct, ids
}

// helperMinChunks is how many distinct chunks a walk must name for each
// helper it starts. Waking a goroutine on another CPU costs about one warm
// chunk fetch, so a helper pays for itself only when it can take several;
// a sparse delta link (a handful of chunks the prefetcher has already
// pulled into the cache) is walked by the caller alone.
const helperMinChunks = 8

// pieceSlot holds one distinct chunk's result. done is closed by the helper
// that fetched the chunk (nil in a walk without helpers). have and reached
// belong to the caller: the result is in the slot and visible to it; the
// walk has come to the address's first entry. scratch is what a compressed
// chunk's piece lives in, until the caller puts it back.
type pieceSlot struct {
	piece         []byte
	scratch       *[]byte
	frameLen      int
	err           error
	done          chan struct{}
	have, reached bool
}

// walkPieces is the engine (see the comment at the top of the file for its
// invariants). It calls visit, on the caller's goroutine, once per
// manifest entry in manifest order with the entry's unframed piece; d is
// the index of the entry's address among the manifest's distinct addresses
// in first-occurrence order, so a visitor can remember a fact per address.
// Time the caller spends planning the walk, fetching or waiting for pieces
// and waiting for its helpers to drain is charged to cost.Fetch, time inside
// visit to cost.Apply. unchecked skips the chunks' address checks.
func walkPieces(cs *storage.ChunkStore, info chunkManifestInfo, opt RestoreOptions, unchecked bool, cost *LoadCost, visit func(d int, piece []byte) error) error {
	t := time.Now()
	distinct, ids := distinctAddrs(info.addrs)
	n := len(distinct)
	if n == 0 {
		return nil
	}
	uses := make([]int, n) // manifest entries still to visit, per address
	for _, d := range ids {
		uses[d]++
	}
	slots := make([]pieceSlot, n)

	var (
		wg     sync.WaitGroup
		cancel = make(chan struct{})
		// Distinct addresses are claimed in order: [0, next) are taken. A
		// claim holds a window token from before it is made until the
		// walk first reaches the chunk.
		next atomic.Int64
		sem  = make(chan struct{}, opt.window())
	)
	fetch := func(d int) {
		s := &slots[d]
		s.piece, s.scratch, s.frameLen, s.err = fetchChunk(cs, distinct[d], info.rawLen, unchecked)
	}

	helpers := min(opt.workers()-1, n/helperMinChunks)
	if helpers > 0 {
		for d := range slots {
			slots[d].done = make(chan struct{})
		}
	}
	for ; helpers > 0; helpers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case sem <- struct{}{}:
				case <-cancel:
					return
				}
				d := int(next.Add(1) - 1)
				if d >= n {
					return
				}
				select {
				case <-cancel:
					// A failed restore is tearing down: nobody will look
					// at this slot, so shutdown is prompt.
					return
				default:
				}
				fetch(d)
				close(slots[d].done)
			}
		}()
	}

	// claim takes the next unclaimed chunk for the caller if the window
	// has room and anything is left.
	claim := func() (int, bool) {
		select {
		case sem <- struct{}{}:
		default:
			return 0, false
		}
		d := int(next.Add(1) - 1)
		if d >= n {
			<-sem
			return 0, false
		}
		return d, true
	}

	// Visit entries strictly in manifest order. The first use of an
	// address needs its chunk: while a helper still holds it the caller
	// fetches ahead instead of sleeping, and sleeps on the helper only when
	// it may claim nothing. Then a helper does hold the chunk, or is about
	// to: the walk has passed every address below d and claims are made in
	// order, so a full window or an exhausted manifest means d is claimed,
	// and a token taken but not yet turned into a claim is a helper whose
	// next claim is d. On the first error — first by manifest position, so
	// the reported failure is deterministic however the fetches interleave
	// — cancel the helpers.
	var firstErr error
	planned := time.Now()
	cost.Fetch += planned.Sub(t)
	t = planned
	for _, d := range ids {
		s := &slots[d]
		if !s.reached { // first use of this address
			waitFrom := time.Now()
			cost.Apply += waitFrom.Sub(t)
			for !s.have {
				if s.done != nil {
					select {
					case <-s.done:
						s.have = true
						continue
					default:
					}
				}
				if c, ok := claim(); ok {
					fetch(c)
					slots[c].have = true
				} else {
					<-s.done
					s.have = true
				}
			}
			s.reached = true
			<-sem
			t = time.Now()
			cost.Fetch += t.Sub(waitFrom)
			if s.err != nil {
				firstErr = s.err
				break
			}
			cost.ChunksFetched++
			if !unchecked {
				cost.BytesHashed += int64(s.frameLen)
			}
		}
		if firstErr = visit(d, s.piece); firstErr != nil {
			break
		}
		if uses[d]--; uses[d] == 0 {
			s.release()
		}
	}
	drainFrom := time.Now()
	cost.Apply += drainFrom.Sub(t)
	close(cancel)
	wg.Wait()
	for d := range slots { // a walk that stopped short of some pieces' last use
		slots[d].release()
	}
	cost.Fetch += time.Since(drainFrom)
	return firstErr
}

// release lets go of the slot's piece after its last use, putting a
// compressed chunk's scratch back in the pool.
func (s *pieceSlot) release() {
	if s.scratch != nil {
		putScratch(s.scratch)
	}
	s.piece, s.scratch = nil, nil
}

// prefetcher pipelines delta-chain resolution: while one link is being
// fetched and applied, the next link's manifest and chunks are pulled
// through the snapshotView's cache in the background, so on a tiered
// backend the cold fetches of link N+1 overlap the CPU work of link N. It
// is the group of its warmers: the resolver defers Wait, so none outlives
// the walk that started it.
type prefetcher struct{ sync.WaitGroup }

// start warms the manifest and chunks of chain[i] in the background and
// returns a wait function; with one worker, or no link i, it does nothing.
// The resolver waits right before its foreground read of the link: by then
// the warmer has run for the whole previous link, so the wait is usually
// instant, and blocking until the fill lands keeps the foreground's
// chunk-at-a-time reads from leading the flights the warmer's one batch
// would have led, which would turn a batched cold read into a serial one.
// Two warms are in flight at a time — the one the resolver waits for and
// the one after it — and consecutive links share chunks (the all-zero one
// at least); the cache's single-flight makes the second asker of a shared
// address join the first one's fetch, so the warms need no ordering.
func (p *prefetcher) start(v *snapshotView, chain []indexEntry, i int) func() {
	if !v.opts.parallel() || i < 0 {
		return func() {}
	}
	done := make(chan struct{})
	p.Add(1)
	go func() {
		defer p.Done()
		defer close(done)
		v.warm(chain[i].key)
	}()
	return func() { <-done }
}

// warm pulls key's snapshot object — and, for chunked kinds, its distinct
// chunks, in one batch a Tiered backend overlaps per level — through the
// view's read cache and leaves the parsed manifest with the view for the
// foreground to pick up (object). It hashes no chunk and drops results and
// errors: the foreground read reports any failure with full context.
func (v *snapshotView) warm(key string) {
	o, err := v.object(key)
	if err != nil || !o.h.Kind.Chunked() {
		return
	}
	keys, _ := distinctAddrs(o.info.addrs)
	for i, addr := range keys {
		keys[i] = ChunkKey(addr)
	}
	storage.GetBatch(v.b, keys)
}
