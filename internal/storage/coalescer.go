package storage

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// Coalescer is the read cache: a bounded, sharded LRU in front of a
// Backend whose misses are single-flight — all concurrent readers of one
// address collapse onto one backend fetch whose result fans out to every
// waiter. It makes *repeated* reads cheap within one restorer (chain
// resolution re-reads anchors and shared chunks, and on a Tiered base
// every re-read would be billed by a cold device model) and
// *simultaneous* reads cheap across them: the engine's workers and the
// chain prefetcher of one recovery (one shard, core/recovery.go), or N
// workers of an elastic job gang-restoring one snapshot chain through a
// server's origin cache (api.Local), reach the base roughly once per
// object instead of once per reader.
//
// The in-flight table is shared by Get, GetBatch, and GetRange, so a
// batch restore stream joining a singleton fetch (or vice versa) still
// coalesces. It caches reads only: its writes are the Put and Delete the
// Backend contract requires, which go through to the base and invalidate
// any cached copy under a per-shard generation fence (see Put). Every
// product write happens beneath it, and Invalidate keeps it coherent with
// such a writer. A fetch that fails completes its flight with the error
// (every waiter gets a clean error, never a hang) and deregisters it, so
// one failed or abandoned restorer cannot poison the address for the next
// reader. Every method is safe for concurrent use.
type Coalescer struct {
	Backend  // the base; List, Stat and Capabilities pass through
	perShard int64
	shards   []coShard
}

// CoalescerStats aggregates origin-cache activity across shards.
type CoalescerStats struct {
	// Hits are reads served from the cache; Misses paid a base fetch.
	Hits   int64
	Misses int64
	// Coalesced counts readers that joined another reader's in-flight
	// fetch instead of issuing their own — the gang-restore win: cold
	// reads saved even before the cache is warm.
	Coalesced int64
	Evictions int64
	Objects   int
	Bytes     int64
}

type cacheEntry struct {
	key  string
	data []byte
}

type coShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	gen     uint64 // bumped by every Put/Delete; fences in-flight fills
	flights map[string]*coFlight
	stats   CoalescerStats
}

// coFlight is one in-flight base fetch. The leader fills data/err,
// deregisters the flight, and closes done; waiters block on done and copy
// the result out. data is private to the coalescer after completion, so
// waiters' copies never alias caller-visible memory.
type coFlight struct {
	done chan struct{}
	data []byte
	err  error
}

// DefaultCoalescerShards stripes the cache and flight tables: enough
// lanes that 100 concurrent restorers rarely contend on one mutex, few
// enough that the per-shard LRU budget stays meaningful.
const DefaultCoalescerShards = 16

// NewCoalescer wraps base with a single-flight origin cache holding at
// most maxBytes of object data across DefaultCoalescerShards shards.
// maxBytes <= 0 caches nothing but still coalesces concurrent fetches.
func NewCoalescer(base Backend, maxBytes int64) *Coalescer {
	return NewCoalescerShards(base, maxBytes, DefaultCoalescerShards)
}

// NewCoalescerShards is NewCoalescer with an explicit shard count
// (values < 1 select one shard).
func NewCoalescerShards(base Backend, maxBytes int64, shards int) *Coalescer {
	if shards < 1 {
		shards = 1
	}
	c := &Coalescer{Backend: base, shards: make([]coShard, shards)}
	if maxBytes > 0 {
		c.perShard = maxBytes / int64(shards)
		if c.perShard < 1 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].flights = make(map[string]*coFlight)
	}
	return c
}

func (c *Coalescer) shard(key string) *coShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Stats sums the per-shard counters.
func (c *Coalescer) Stats() CoalescerStats {
	var st CoalescerStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.stats.Hits
		st.Misses += sh.stats.Misses
		st.Coalesced += sh.stats.Coalesced
		st.Evictions += sh.stats.Evictions
		st.Objects += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// begin classifies one read under the shard lock: a cache hit (hit=true)
// returns the copied data; otherwise the caller either joins key's
// in-flight fetch (lead=false) or becomes its leader (lead=true) and must
// call finish. gen is the shard's write generation at classification, for
// insert fencing. hit is a separate flag because a cached empty object's
// copy is indistinguishable from nil data.
func (c *Coalescer) begin(key string) (data []byte, hit bool, fl *coFlight, gen uint64, lead bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.stats.Hits++
		sh.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		return append([]byte(nil), ent.data...), true, nil, 0, false
	}
	if fl, ok := sh.flights[key]; ok {
		sh.stats.Coalesced++
		return nil, false, fl, 0, false
	}
	sh.stats.Misses++
	fl = &coFlight{done: make(chan struct{})}
	sh.flights[key] = fl
	return nil, false, fl, sh.gen, true
}

// finish completes a led flight: record the result, fill the cache (under
// the generation fence taken at begin), deregister, and release every
// waiter. The flight keeps a private copy of data, so waiters never see
// memory the leader's caller can mutate; the copy is taken before the
// shard lock so one miss's memmove does not serialise the shard's other
// readers.
func (c *Coalescer) finish(key string, fl *coFlight, data []byte, err error, gen uint64) {
	fl.err = err
	if err == nil {
		fl.data = append([]byte(nil), data...)
	}
	sh := c.shard(key)
	sh.mu.Lock()
	delete(sh.flights, key)
	if err == nil {
		sh.insert(key, fl.data, gen, c.perShard)
	}
	sh.mu.Unlock()
	close(fl.done)
}

// await blocks on a joined flight and copies its result out.
func (fl *coFlight) await() ([]byte, error) {
	<-fl.done
	if fl.err != nil {
		return nil, fl.err
	}
	return append([]byte(nil), fl.data...), nil
}

// insert stores data (ownership transferred; already a private copy)
// under key, evicting LRU entries beyond the shard budget. Called with
// the shard lock held. Oversized objects and fills superseded by a write
// (gen moved on) are skipped.
func (sh *coShard) insert(key string, data []byte, gen uint64, budget int64) {
	if budget <= 0 || int64(len(data)) > budget || gen != sh.gen {
		return
	}
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		sh.bytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		sh.lru.MoveToFront(el)
	} else {
		sh.entries[key] = sh.lru.PushFront(&cacheEntry{key: key, data: data})
		sh.bytes += int64(len(data))
	}
	for sh.bytes > budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		sh.lru.Remove(back)
		delete(sh.entries, ent.key)
		sh.bytes -= int64(len(ent.data))
		sh.stats.Evictions++
	}
}

// Invalidate evicts key if cached and fences its in-flight fills: what
// every write through this wrapper does, and what a writer that changes an
// object beneath it must do (the service committing, deleting and
// repairing through its own store).
func (c *Coalescer) Invalidate(key string) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gen++
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		sh.lru.Remove(el)
		delete(sh.entries, key)
		sh.bytes -= int64(len(ent.data))
	}
}

// InvalidateAll empties the cache and fences every in-flight fill — the
// hammer for writes that bypass this wrapper, e.g. a GC sweep deleting
// chunks directly through the service beneath the server's origin cache.
func (c *Coalescer) InvalidateAll() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.gen++
		sh.entries = make(map[string]*list.Element)
		sh.lru = list.New()
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// Name implements Backend.
func (c *Coalescer) Name() string { return "coalesce+" + c.Backend.Name() }

// Caps implements CapsReporter: ranged and batch reads are native whatever
// the base offers, so every read enters the single-flight machinery. The
// cache declares nothing of the base's write side: its writes are the
// required Put and Delete.
func (c *Coalescer) Caps() CapSet { return CapSet{Range: c, Batch: c} }

// Get implements Backend: cache hit, joined flight, or led base fetch.
func (c *Coalescer) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	data, hit, fl, gen, lead := c.begin(key)
	if hit {
		return data, nil
	}
	if !lead {
		return fl.await()
	}
	data, err := c.Backend.Get(key)
	c.finish(key, fl, data, err, gen)
	return data, err
}

// GetBatch implements BatchReader. Hits are served from the cache, joins
// wait on whoever is already fetching, and the remaining misses — the
// keys this call leads — go down to the base in ONE batch (overlapped
// per level on a Tiered base), then fan out to every waiter. Duplicate
// keys within one request coalesce too: the first occurrence leads, the
// rest join its flight.
func (c *Coalescer) GetBatch(keys []string) ([][]byte, []error) {
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	type led struct {
		idx int
		fl  *coFlight
		gen uint64
	}
	type joined struct {
		idx int
		fl  *coFlight
	}
	var leads []led
	var joins []joined
	for i, k := range keys {
		if err := ValidateKey(k); err != nil {
			errs[i] = err
			continue
		}
		data, hit, fl, gen, lead := c.begin(k)
		switch {
		case hit:
			out[i] = data
		case lead:
			leads = append(leads, led{i, fl, gen})
		default:
			joins = append(joins, joined{i, fl})
		}
	}
	if len(leads) > 0 {
		leadKeys := make([]string, len(leads))
		for j, l := range leads {
			leadKeys[j] = keys[l.idx]
		}
		datas, merrs := GetBatch(c.Backend, leadKeys)
		for j, l := range leads {
			c.finish(leadKeys[j], l.fl, datas[j], merrs[j], l.gen)
			out[l.idx], errs[l.idx] = datas[j], merrs[j]
		}
	}
	// Waiting strictly after completing every led flight keeps two
	// batches that lead disjoint halves of each other's key sets from
	// deadlocking.
	for _, j := range joins {
		out[j.idx], errs[j.idx] = j.fl.await()
	}
	return out, errs
}

// GetRange implements RangeReader: cached objects and completed flights
// are sliced in memory; a cold range probe passes through to the base
// without caching or leading a flight (a header probe must not pull
// whole cold objects into the budget), but it does join an in-flight
// full fetch rather than racing it to the cold tier.
func (c *Coalescer) GetRange(key string, off, n int64) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	if err := validRange(off, n); err != nil {
		return nil, err
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.stats.Hits++
		sh.lru.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		res := sliceRange(data, off, n)
		sh.mu.Unlock()
		return res, nil
	}
	fl, inFlight := sh.flights[key]
	if inFlight {
		sh.stats.Coalesced++
	}
	sh.mu.Unlock()
	if inFlight {
		data, err := fl.await()
		if err != nil {
			return nil, err
		}
		return sliceRange(data, off, n), nil
	}
	return GetRange(c.Backend, key, off, n)
}

// sliceRange copies the [off, off+n) window out of a cached object, which
// callers must never alias.
func sliceRange(data []byte, off, n int64) []byte {
	return append([]byte(nil), clampRange(data, off, n)...)
}

// Put implements Backend: write through, then invalidate any cached copy
// and fence in-flight fills, whatever the outcome. Updating the entry in
// place would race a concurrent Put of the same key and could pin the
// loser's bytes; and a failed write over a replicated base may still have
// landed on a minority of replicas and win a later quorum read.
func (c *Coalescer) Put(key string, data []byte) error {
	err := c.Backend.Put(key, data)
	c.Invalidate(key)
	return err
}

// Delete implements Backend under Put's rule: delete, then invalidate,
// whatever the outcome.
func (c *Coalescer) Delete(key string) error {
	err := c.Backend.Delete(key)
	c.Invalidate(key)
	return err
}
