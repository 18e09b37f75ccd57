package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedBackend observes a Backend so a test can hold every Get at the
// gate, count base fetches, and inject failures — the deterministic
// stand-in for a slow cold tier under a gang of restorers. Over a Mem it
// declares no batch read, so a GetBatch reaches it as one Get per key.
type gatedBackend struct {
	*Observed
	gate    chan struct{} // each Get consumes one token before proceeding
	gets    atomic.Int64
	failGet atomic.Bool // when set, Get fails after passing the gate
}

var errInjected = errors.New("injected cold-tier failure")

func newGated(base Backend) *gatedBackend {
	g := &gatedBackend{gate: make(chan struct{})}
	g.Observed = Observe(base, g.hold)
	return g
}

// open lets n fetches through the gate.
func (g *gatedBackend) open(n int) {
	for i := 0; i < n; i++ {
		g.gate <- struct{}{}
	}
}

func (g *gatedBackend) hold(op Op) (int64, error) {
	if op.After || op.Kind != OpGet {
		return 0, nil
	}
	g.gets.Add(1)
	<-g.gate
	if g.failGet.Load() {
		return 0, errInjected
	}
	return 0, nil
}

func TestCoalescerSingleFlight(t *testing.T) {
	base := NewMem()
	base.Put("k", []byte("value"))
	g := newGated(base)
	c := NewCoalescer(g, 1<<20)

	const readers = 16
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Get("k")
		}(i)
	}
	// Wait until every reader has classified: one leader, the rest joined.
	waitFor(t, func() bool { return c.Stats().Coalesced == readers-1 })
	g.open(1)
	wg.Wait()

	if got := g.gets.Load(); got != 1 {
		t.Errorf("base saw %d fetches for %d concurrent readers, want 1", got, readers)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "value" {
			t.Errorf("reader %d: %q, %v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != readers-1 {
		t.Errorf("stats after gang read: %+v", st)
	}
	// The fan-out filled the cache: the next read is a hit, no base fetch.
	if got, err := c.Get("k"); err != nil || string(got) != "value" {
		t.Fatalf("warm read: %q, %v", got, err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("warm read not a hit: %+v", st)
	}
	if got := g.gets.Load(); got != 1 {
		t.Errorf("warm read touched the base (%d fetches)", got)
	}
	// Returned slices never alias the cache.
	got, _ := c.Get("k")
	got[0] = 'X'
	if again, _ := c.Get("k"); string(again) != "value" {
		t.Errorf("cache aliased caller memory: %q", again)
	}
}

func TestCoalescerBatchJoinsAndDedupsKeys(t *testing.T) {
	base := NewMem()
	base.Put("a", []byte("va"))
	base.Put("b", []byte("vb"))
	g := newGated(base)
	c := NewCoalescer(g, 1<<20)

	// A singleton Get in flight…
	var singleton []byte
	var serr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); singleton, serr = c.Get("a") }()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })

	// …is joined by a batch that also repeats its own keys: the batch
	// leads one fetch for "b" and joins everything else.
	var out [][]byte
	var errs []error
	wg.Add(1)
	go func() { defer wg.Done(); out, errs = c.GetBatch([]string{"a", "b", "b", "a"}) }()
	waitFor(t, func() bool { return c.Stats().Coalesced == 3 })
	g.open(2) // one for the singleton's "a", one for the batch's "b"
	wg.Wait()

	if serr != nil || string(singleton) != "va" {
		t.Fatalf("singleton: %q, %v", singleton, serr)
	}
	want := []string{"va", "vb", "vb", "va"}
	for i := range want {
		if errs[i] != nil || string(out[i]) != want[i] {
			t.Errorf("batch[%d]: %q, %v", i, out[i], errs[i])
		}
	}
	if got := g.gets.Load(); got != 2 {
		t.Errorf("base saw %d fetches, want 2 (singleton a + batch b)", got)
	}
}

func TestCoalescerGetRangeJoinsInFlightFetch(t *testing.T) {
	base := NewMem()
	base.Put("k", []byte("0123456789"))
	g := newGated(base)
	c := NewCoalescer(g, 1<<20)

	var full []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); full, _ = c.Get("k") }()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })

	var ranged []byte
	var rerr error
	wg.Add(1)
	go func() { defer wg.Done(); ranged, rerr = c.GetRange("k", 2, 3) }()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 })
	g.open(1)
	wg.Wait()

	if string(full) != "0123456789" || rerr != nil || string(ranged) != "234" {
		t.Errorf("full=%q ranged=%q err=%v", full, ranged, rerr)
	}
	if got := g.gets.Load(); got != 1 {
		t.Errorf("range read raced the in-flight fetch to the base (%d fetches)", got)
	}
	// A cached object serves ranges in memory, including past-EOF clamping.
	if got, err := c.GetRange("k", 8, 10); err != nil || string(got) != "89" {
		t.Errorf("cached range: %q, %v", got, err)
	}
	if got, err := c.GetRange("k", 20, 4); err != nil || len(got) != 0 {
		t.Errorf("past-EOF range: %q, %v", got, err)
	}
	// A cold range probe passes through without caching or leading.
	base.Put("cold", []byte("abcdef"))
	go g.open(1) // pass-through uses the base directly, no gate token needed
	if got, err := c.GetRange("cold", 1, 2); err != nil || string(got) != "bc" {
		t.Errorf("cold range: %q, %v", got, err)
	}
	if st := c.Stats(); st.Objects != 1 {
		t.Errorf("cold range probe cached the object: %+v", st)
	}
}

// TestCoalescerFailedFetchDoesNotPoison is the gang-restore fault drill:
// a leader's cold fetch fails (its restorer may be gone entirely) while
// waiters are coalesced onto the flight. Every waiter must get the error
// promptly — never a hang — and the address must not be poisoned: once
// the cold tier heals, the next read succeeds.
func TestCoalescerFailedFetchDoesNotPoison(t *testing.T) {
	base := NewMem()
	base.Put("k", []byte("value"))
	g := newGated(base)
	c := NewCoalescer(g, 1<<20)

	const waiters = 8
	g.failGet.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, waiters+1)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = c.Get("k") }() // leader
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _, errs[i] = c.Get("k") }(i)
	}
	waitFor(t, func() bool { return c.Stats().Coalesced == waiters })
	g.open(1) // the leader's fetch fails

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters hung on a failed flight")
	}
	for i, err := range errs {
		if !errors.Is(err, errInjected) {
			t.Errorf("reader %d: got %v, want the injected error", i, err)
		}
	}
	// The failed flight deregistered and cached nothing: after the tier
	// heals, a fresh read leads its own fetch and succeeds.
	g.failGet.Store(false)
	go g.open(1)
	if got, err := c.Get("k"); err != nil || string(got) != "value" {
		t.Errorf("read after heal: %q, %v — address poisoned", got, err)
	}
	if st := c.Stats(); st.Objects != 1 {
		t.Errorf("healed read did not fill the cache: %+v", st)
	}
}

// TestCoalescerWriteFencesInFlightFill locks the racing-Put discipline: a
// Put that lands while a miss fetch is in flight must prevent the stale
// fill from being cached, so the next read observes the new value.
func TestCoalescerWriteFencesInFlightFill(t *testing.T) {
	base := NewMem()
	base.Put("k", []byte("old"))
	g := newGated(base)
	c := NewCoalescer(g, 1<<20)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.Get("k") }()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	// The write goes straight to the inner Mem (the gate only delays
	// reads), then the stale fetch completes.
	if err := c.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	g.open(1)
	wg.Wait()

	go g.open(1) // the re-read may miss (nothing cached) and hit the gate
	if got, err := c.Get("k"); err != nil || string(got) != "new" {
		t.Errorf("read after racing Put: %q, %v — stale fill cached", got, err)
	}
	// Delete evicts and fences the same way.
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	go g.open(1)
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key still served: %v", err)
	}
}

func TestCoalescerEvictionBudgetAndDisabled(t *testing.T) {
	base := NewMem()
	vals := map[string][]byte{}
	for _, k := range []string{"a", "b", "c"} {
		vals[k] = bytes.Repeat([]byte(k), 10)
		base.Put(k, vals[k])
	}
	// One shard so the byte budget is exact, 25 bytes: two objects fit.
	c := NewCoalescerShards(base, 25, 1)
	c.Get("a")
	c.Get("b")
	c.Get("a") // bump a
	c.Get("c") // 30 > 25: evicts b (LRU)
	st := c.Stats()
	if st.Evictions != 1 || st.Objects != 2 || st.Bytes != 20 {
		t.Errorf("stats after eviction: %+v", st)
	}
	if got, err := c.Get("b"); err != nil || !bytes.Equal(got, vals["b"]) {
		t.Errorf("evicted key re-read: %q, %v", got, err)
	}
	// Oversized objects are served but never cached.
	big := bytes.Repeat([]byte{7}, 100)
	base.Put("big", big)
	if got, err := c.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized read: %d bytes, %v", len(got), err)
	}
	if after := c.Stats(); after.Bytes > 25 {
		t.Errorf("oversized object cached: %+v", after)
	}

	// maxBytes <= 0 caches nothing but still coalesces concurrent readers.
	g := newGated(NewMem())
	g.Backend.Put("k", []byte("v"))
	off := NewCoalescer(g, 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); off.Get("k") }()
	}
	waitFor(t, func() bool { return off.Stats().Coalesced == 3 })
	g.open(1)
	wg.Wait()
	if got := g.gets.Load(); got != 1 {
		t.Errorf("cache-off coalescer issued %d base fetches, want 1", got)
	}
	if st := off.Stats(); st.Objects != 0 {
		t.Errorf("cache-off coalescer stored entries: %+v", st)
	}
}

func TestCoalescerEmptyObject(t *testing.T) {
	base := NewMem()
	base.Put("empty", []byte{})
	c := NewCoalescer(base, 1<<20)
	for i := 0; i < 2; i++ { // second read is the cached-hit path
		if got, err := c.Get("empty"); err != nil || len(got) != 0 {
			t.Fatalf("read %d of empty object: %q, %v", i, got, err)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("empty-object stats: %+v", st)
	}
}

// TestCoalescerStress hammers one coalescer from 64 goroutines with
// overlapping address sets — mixed Get/GetBatch/GetRange plus canonical
// overwrites and invalidation — under a budget small enough to force
// constant eviction. Every key's value is a pure function of the key, so
// any successful read has exactly one right answer whatever the
// interleaving. Run with -race (the CI race job does).
func TestCoalescerStress(t *testing.T) {
	base := NewMem()
	valueOf := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k + 1)}, 64)
	}
	const keys = 16
	keyName := func(k int) string { return fmt.Sprintf("k%02d", k) }
	for k := 0; k < keys; k++ {
		if err := base.Put(keyName(k), valueOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Two shards of 3 objects each out of 16: constant eviction churn.
	c := NewCoalescerShards(base, 6*64, 2)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for gr := 0; gr < 64; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (gr*7 + i) % keys
				key := keyName(k)
				switch (gr + i) % 6 {
				case 0: // overwrite with the same canonical value
					if err := c.Put(key, valueOf(k)); err != nil {
						errCh <- err
						return
					}
				case 1: // delete then restore the canonical value
					c.Delete(key)
					if err := c.Put(key, valueOf(k)); err != nil {
						errCh <- err
						return
					}
				case 2: // range read
					got, err := c.GetRange(key, 8, 16)
					if err == nil && !bytes.Equal(got, valueOf(k)[8:24]) {
						errCh <- fmt.Errorf("range of %s returned wrong bytes", key)
						return
					}
				case 3: // overlapping batch read
					ks := []string{key, keyName((k + 1) % keys), key}
					out, errs := c.GetBatch(ks)
					for j, kj := range ks {
						if errs[j] == nil && len(out[j]) != 64 {
							errCh <- fmt.Errorf("batch read of %s returned %d bytes", kj, len(out[j]))
							return
						}
					}
				default: // plain read
					got, err := c.Get(key)
					if err == nil && !bytes.Equal(got, valueOf(k)) {
						errCh <- fmt.Errorf("read of %s returned wrong bytes", key)
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if st := c.Stats(); st.Bytes > 6*64 {
		t.Errorf("coalescer exceeded its budget: %+v", st)
	}
	// Every key still reads correctly once the writers are gone.
	for k := 0; k < keys; k++ {
		if got, err := c.Get(keyName(k)); err != nil || !bytes.Equal(got, valueOf(k)) {
			t.Errorf("post-stress read of %s: %v", keyName(k), err)
		}
	}
}

// The TestCache* cases below hold the one-shard Coalescer — the read cache
// core's recovery resolves through — to the plain read-cache contract:
// write coherence, batch fills, range reads, and the generation fence on
// the batch path.

func newReadCache(base Backend) *Coalescer { return NewCoalescerShards(base, 1<<20, 1) }

func TestCacheCoherence(t *testing.T) {
	c := newReadCache(NewMem())
	c.Put("k", []byte("v1"))
	// A Put of an uncached key does not populate the cache.
	if st := c.Stats(); st.Objects != 0 {
		t.Fatalf("put populated the cache: %+v", st)
	}
	if got, _ := c.Get("k"); string(got) != "v1" {
		t.Fatalf("got %q", got)
	}
	// An overwrite through the cache drops the cached copy.
	if err := c.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("k"); string(got) != "v2" {
		t.Errorf("stale cached copy after Put: %q", got)
	}
	// Delete evicts.
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key still served: %v", err)
	}
	if st := c.Stats(); st.Objects != 0 || st.Bytes != 0 {
		t.Errorf("cache retains deleted entry: %+v", st)
	}
	// Callers cannot mutate cached data through returned slices — neither
	// the leader's (the base's buffer) nor a hit's.
	c.Put("m", []byte("abc"))
	for i := 0; i < 2; i++ {
		got, _ := c.Get("m")
		got[0] = 'X'
	}
	if again, _ := c.Get("m"); string(again) != "abc" {
		t.Errorf("cache aliased caller memory: %q", again)
	}
}

func TestCacheGetRange(t *testing.T) {
	c := newReadCache(NewMem())
	c.Put("k", []byte("0123456789"))
	// Range probe on a cold key passes through without filling the budget.
	if got, err := GetRange(c, "k", 2, 3); err != nil || string(got) != "234" {
		t.Fatalf("cold range: %q, %v", got, err)
	}
	if st := c.Stats(); st.Objects != 0 {
		t.Errorf("range probe cached the object: %+v", st)
	}
	// After a full read the range is sliced from the cached copy.
	c.Get("k")
	hits := c.Stats().Hits
	if got, err := GetRange(c, "k", 8, 10); err != nil || string(got) != "89" {
		t.Errorf("cached range: %q, %v", got, err)
	}
	if got, err := GetRange(c, "k", 20, 4); err != nil || len(got) != 0 {
		t.Errorf("cached past-EOF range: %q, %v", got, err)
	}
	if st := c.Stats(); st.Hits != hits+2 {
		t.Errorf("cached ranges were not served from memory: %+v", st)
	}
	if _, err := GetRange(c, "k", -1, 4); err == nil {
		t.Errorf("negative offset accepted")
	}
}

func TestCacheGetBatch(t *testing.T) {
	base := NewMem()
	c := newReadCache(base)
	for _, k := range []string{"a", "b", "c"} {
		base.Put(k, []byte("val-"+k))
	}
	c.Get("b") // pre-warm one key
	out, errs := c.GetBatch([]string{"a", "b", "c", "missing"})
	for i, k := range []string{"a", "b", "c"} {
		if errs[i] != nil || string(out[i]) != "val-"+k {
			t.Errorf("batch[%d]: %q, %v", i, out[i], errs[i])
		}
	}
	if !errors.Is(errs[3], ErrNotFound) {
		t.Errorf("missing key error: %v", errs[3])
	}
	// The batch fill means later singleton Gets are hits.
	st := c.Stats()
	c.Get("a")
	c.Get("c")
	if after := c.Stats(); after.Hits != st.Hits+2 {
		t.Errorf("batch did not fill the cache: %+v -> %+v", st, after)
	}
}

// slowRead is a Hook that lets a Get read the inner value FIRST and then
// blocks it until released — the exact shape of the staleness race: a
// batch miss reads the old bytes from the base, a Put of the same address
// lands, and only then does the fill reach the cache. The generation
// fence must discard that fill.
type slowRead struct {
	snapped chan struct{} // signaled once the old bytes are in hand
	release chan struct{}
}

func (s *slowRead) hold(op Op) (int64, error) {
	if op.After && op.Kind == OpGet {
		s.snapped <- struct{}{}
		<-s.release
	}
	return 0, nil
}

// TestCacheGetBatchRacingPutFencesStaleFill pins the batch-path variant
// of the racing-Put discipline: a GetBatch miss whose base read completes
// before a concurrent Put of the same address must not install the
// pre-Put bytes, or the cache would serve them until eviction.
func TestCacheGetBatchRacingPutFencesStaleFill(t *testing.T) {
	inner := NewMem()
	inner.Put("k", []byte("old"))
	base := &slowRead{snapped: make(chan struct{}), release: make(chan struct{})}
	c := newReadCache(Observe(inner, base.hold))

	var batch [][]byte
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch, errs = c.GetBatch([]string{"k"})
	}()
	<-base.snapped                                    // the batch read holds the old bytes at the gate…
	if err := c.Put("k", []byte("new")); err != nil { // …overwrite beneath it
		t.Fatal(err)
	}
	base.release <- struct{}{}
	<-done

	// The batch itself may legitimately return the old bytes (its read
	// linearized before the Put) — the bug would be *retaining* them.
	if errs[0] != nil || string(batch[0]) != "old" {
		t.Fatalf("batch read: %q, %v", batch[0], errs[0])
	}
	if st := c.Stats(); st.Objects != 0 {
		t.Errorf("stale batch fill survived the racing Put: %+v", st)
	}
	go func() { <-base.snapped; base.release <- struct{}{} }() // the re-read misses and blocks
	if got, err := c.Get("k"); err != nil || string(got) != "new" {
		t.Errorf("read after racing Put: %q, %v", got, err)
	}
}

// TestCacheGetBatchConcurrentPutStress is the nondeterministic companion:
// readers hammer GetBatch over a small key set while writers bump each
// key through a monotonic version sequence. After the storm every key
// must read back its final version — a pinned stale fill from the batch
// path would fail here. Run with -race (the CI race job does).
func TestCacheGetBatchConcurrentPutStress(t *testing.T) {
	base := NewMem()
	const keys, versions = 4, 200
	valueAt := func(k, v int) []byte {
		return bytes.Repeat([]byte{byte(k*versions+v) % 251}, 64)
	}
	keyName := func(k int) string { return fmt.Sprintf("k%02d", k) }
	for k := 0; k < keys; k++ {
		if err := base.Put(keyName(k), valueAt(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	c := newReadCache(base)
	allKeys := make([]string, keys)
	for k := range allKeys {
		allKeys[k] = keyName(k)
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ { // one writer per key, versions in order
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				if err := c.Put(keyName(k), valueAt(k, v)); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	for r := 0; r < 8; r++ { // batch readers racing the writers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out, errs := c.GetBatch(allKeys)
				for j := range out {
					if errs[j] != nil || len(out[j]) != 64 {
						t.Errorf("batch[%d]: %d bytes, %v", j, len(out[j]), errs[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// No batch fill may have outlived the Put that superseded it.
	for k := 0; k < keys; k++ {
		if got, err := c.Get(keyName(k)); err != nil || !bytes.Equal(got, valueAt(k, versions)) {
			t.Errorf("post-stress read of %s is not the final version (err %v)", keyName(k), err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes — the tests
// above use it to wait for goroutines to reach their classification
// point without sleeping fixed amounts.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
