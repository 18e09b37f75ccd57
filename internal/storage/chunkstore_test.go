package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestChunkStoreIngestRepairsCorruptDedupHit plants wrong bytes at a
// chunk's address and re-ingests the good content: the dedup hit must
// verify the resident copy and rewrite it instead of silently keeping
// the corruption and dropping the good data.
func TestChunkStoreIngestRepairsCorruptDedupHit(t *testing.T) {
	mem := NewMem()
	cs := NewChunkStore(mem)
	data := []byte("the canonical chunk content for this address")
	addr := Hash(data)
	key := addr[:2] + "/" + addr

	// Same-length corruption: the size check alone cannot catch it.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if err := mem.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	written, err := cs.Ingest(addr, data, ClassDefault)
	if err != nil {
		t.Fatalf("Ingest over corrupt copy: %v", err)
	}
	if written != len(data) {
		t.Errorf("corrupt dedup hit reported %d bytes written, want %d (rewrite)", written, len(data))
	}
	if back, err := cs.Get(addr); err != nil || !bytes.Equal(back, data) {
		t.Errorf("chunk not repaired: %q, %v", back, err)
	}

	// Truncated copy: caught by the size check, also rewritten.
	if err := mem.Put(key, data[:5]); err != nil {
		t.Fatal(err)
	}
	if written, err = cs.Ingest(addr, data, ClassDefault); err != nil || written != len(data) {
		t.Fatalf("Ingest over truncated copy: written=%d err=%v", written, err)
	}
	if back, err := cs.Get(addr); err != nil || !bytes.Equal(back, data) {
		t.Errorf("truncated chunk not repaired: %q, %v", back, err)
	}

	// A healthy resident copy is still a zero-write dedup hit.
	if written, err = cs.Ingest(addr, data, ClassDefault); err != nil || written != 0 {
		t.Errorf("verified dedup hit: written=%d err=%v, want 0, nil", written, err)
	}
}

// TestChunkStoreGetUncheckedVouchesForNothing: an unchecked read hands out
// whatever sits at the address — it is the reader's hash that decides — with
// Get's errors for a missing or malformed one, and leaves the verified set
// alone: after one, a dedup hit still compares bytes and repairs a resident
// copy that is wrong, where a checked Get of good bytes lets the next hit
// through on a Stat.
func TestChunkStoreGetUncheckedVouchesForNothing(t *testing.T) {
	mem := NewMem()
	data := []byte("the canonical chunk content for this address")
	addr := Hash(data)
	key := addr[:2] + "/" + addr
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF

	cs := NewChunkStore(mem)
	if _, err := cs.GetUnchecked(addr); !errors.Is(err, ErrChunkNotFound) {
		t.Errorf("missing chunk: %v, want ErrChunkNotFound", err)
	}
	if _, err := cs.GetUnchecked("not-an-address"); err == nil {
		t.Error("malformed address accepted")
	}
	if err := mem.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	if got, err := cs.GetUnchecked(addr); err != nil || !bytes.Equal(got, bad) {
		t.Fatalf("GetUnchecked = %q, %v; want the resident bytes, unjudged", got, err)
	}
	if _, err := cs.Get(addr); err == nil {
		t.Error("checked Get accepted bytes that miss their address")
	}
	if written, err := cs.Ingest(addr, data, ClassDefault); err != nil || written != len(data) {
		t.Errorf("Ingest after an unchecked read of a wrong copy: written=%d err=%v, want a %d-byte repair", written, err, len(data))
	}

	// The same with good bytes read first: an unchecked read leaves the
	// next hit to compare (one Get), a checked one has vouched (none).
	for _, tc := range []struct {
		read func(*ChunkStore, string) ([]byte, error)
		gets int
	}{{(*ChunkStore).GetUnchecked, 1}, {(*ChunkStore).Get, 0}} {
		counted := &getCounter{Backend: mem}
		cs := NewChunkStore(counted)
		if _, err := tc.read(cs, addr); err != nil {
			t.Fatal(err)
		}
		counted.gets = 0
		if written, err := cs.Ingest(addr, data, ClassDefault); err != nil || written != 0 || counted.gets != tc.gets {
			t.Errorf("dedup hit: written=%d err=%v after %d reads of the resident copy, want 0, nil, %d", written, err, counted.gets, tc.gets)
		}
	}
}

// getCounter counts the full reads that reach the backend beneath it.
type getCounter struct {
	Backend
	gets int
}

func (c *getCounter) Get(key string) ([]byte, error) {
	c.gets++
	return c.Backend.Get(key)
}

// TestShardedChunkStoreRouting checks the shard router: the shard index
// is derived from the first address byte (the on-disk fan-out prefix),
// stays in range for every shard count, and the full address space
// touches every stripe at the default count.
func TestShardedChunkStoreRouting(t *testing.T) {
	for _, shards := range []int{1, 3, 16, DefaultChunkShards, 256, 1024, 0, -5} {
		cs := NewShardedChunkStore(NewMem(), shards)
		want := shards
		if want <= 0 {
			want = DefaultChunkShards
		}
		if want > maxChunkShards {
			want = maxChunkShards
		}
		if len(cs.shards) != want {
			t.Fatalf("shards=%d: got %d stripes, want %d", shards, len(cs.shards), want)
		}
		seen := make(map[int]bool)
		for b := 0; b < 256; b++ {
			addr := fmt.Sprintf("%02x", b)
			idx := cs.ShardOf(addr)
			if idx < 0 || idx >= len(cs.shards) {
				t.Fatalf("shards=%d: prefix %s routed out of range (%d)", shards, addr, idx)
			}
			seen[idx] = true
		}
		if len(seen) != len(cs.shards) {
			t.Errorf("shards=%d: only %d/%d stripes reachable", shards, len(seen), len(cs.shards))
		}
	}
	// Malformed addresses must route somewhere valid rather than panic;
	// key() rejects them before any backend traffic.
	cs := NewChunkStore(NewMem())
	for _, bad := range []string{"", "z", "zz-not-hex"} {
		if idx := cs.ShardOf(bad); idx != 0 {
			t.Errorf("malformed address %q routed to %d, want 0", bad, idx)
		}
	}
}

// TestShardedChunkStoreConcurrentIngest hammers one store from many
// goroutines mixing Ingest, Get and re-Ingest across all shards — the
// multi-tenant access pattern — and checks every chunk comes back
// bitwise. Run with -race to check the per-shard locking.
func TestShardedChunkStoreConcurrentIngest(t *testing.T) {
	cs := NewShardedChunkStore(NewMem(), 8)
	const workers, chunks = 8, 64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < chunks; i++ {
				// Half the content is shared across workers (dedup traffic),
				// half is worker-private.
				var data []byte
				if i%2 == 0 {
					data = []byte(fmt.Sprintf("shared-chunk-%d", i))
				} else {
					data = []byte(fmt.Sprintf("worker-%d-chunk-%d", w, i))
				}
				addr, err := cs.Put(data)
				if err != nil {
					errs <- err
					return
				}
				back, err := cs.Get(addr)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(back, data) {
					errs <- fmt.Errorf("chunk %s round-tripped wrong", addr)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkStoreSweepHonorsInventory checks Sweep only touches the listed
// inventory: a chunk ingested after the listing survives even though
// nothing excuses it — the ordering contract the engine's pinned GC relies
// on for chunks racing the inventory scan.
func TestChunkStoreSweepHonorsInventory(t *testing.T) {
	cs := NewChunkStore(NewMem())
	old, err := cs.Put([]byte("doomed orphan"))
	if err != nil {
		t.Fatal(err)
	}
	inventory, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	late, err := cs.Put([]byte("ingested after the listing"))
	if err != nil {
		t.Fatal(err)
	}
	// A live skip predicate excuses a listed orphan (the engine passes its
	// pin table here)…
	removed, _, err := cs.Sweep(inventory, func(addr string) bool { return addr == old }, nil)
	if err != nil || removed != 0 {
		t.Fatalf("skipped sweep: removed=%d err=%v, want 0", removed, err)
	}
	if !cs.Has(old) {
		t.Fatalf("skip predicate ignored")
	}
	// …and without it the listed orphan goes while later ingests survive.
	removed, _, err = cs.Sweep(inventory, nil, nil)
	if err != nil || removed != 1 {
		t.Fatalf("sweep: removed=%d err=%v, want 1", removed, err)
	}
	if cs.Has(old) {
		t.Errorf("listed orphan survived the sweep")
	}
	if !cs.Has(late) {
		t.Errorf("chunk ingested after the inventory was swept")
	}
}

// TestSweepCountsOnlyWhatItDeleted is the regression test for Sweep's
// count: an address with no chunk behind it — swept already, or never
// written — is an ordinary input of a candidate sweep, and must not be
// counted as removed nor reported to onRemoved, which credits a tenant's
// quota for it. Before the fix a Delete answering ErrNotFound counted.
func TestSweepCountsOnlyWhatItDeleted(t *testing.T) {
	cs := NewChunkStore(NewMem())
	data := []byte("the one chunk that is there")
	there, err := cs.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	gone, never := Hash([]byte("swept by an earlier pass")), Hash([]byte("never written"))
	if _, err := cs.Ingest(gone, []byte("swept by an earlier pass"), ClassDefault); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := cs.Sweep([]string{gone}, nil, nil); err != nil || removed != 1 {
		t.Fatalf("first sweep: removed=%d err=%v", removed, err)
	}
	var credited []string
	removed, reclaimed, err := cs.Sweep([]string{gone, never, there, "not an address"}, nil, func(addr string, size int64) {
		credited = append(credited, addr)
		if size != int64(len(data)) {
			t.Errorf("onRemoved(%.8s…) size %d, want %d", addr, size, len(data))
		}
	})
	if err != nil || removed != 1 || reclaimed != int64(len(data)) {
		t.Errorf("sweep of one resident and two absent addresses: removed=%d reclaimed=%d err=%v, want 1, %d", removed, reclaimed, err, len(data))
	}
	if len(credited) != 1 || credited[0] != there {
		t.Errorf("onRemoved saw %v, want only the chunk this sweep deleted", credited)
	}
	// Re-ingesting a swept address must write: the verified mark went with it.
	if n, err := cs.Ingest(there, data, ClassDefault); err != nil || n != len(data) {
		t.Errorf("re-ingest after the sweep wrote %d bytes (err %v), want %d", n, err, len(data))
	}
}

func TestChunkKeyAddr(t *testing.T) {
	addr := Hash([]byte("x"))
	cases := []struct {
		key string
		ok  bool
	}{
		{"chunks/" + addr[:2] + "/" + addr, true},
		{addr[:2] + "/" + addr, true},                // chunk store at the root
		{"ns/chunks/" + addr[:2] + "/" + addr, true}, // nested namespace
		{"jobs/a/ckpt-000000000001-full.qckpt", false},
		{addr, false},                             // no fan-out segment
		{"zz/" + addr, false},                     // fan-out mismatch
		{addr[:2] + "/" + addr[:63] + "G", false}, // not hex
	}
	for _, c := range cases {
		got, ok := ChunkKeyAddr(c.key)
		if ok != c.ok {
			t.Errorf("ChunkKeyAddr(%q) ok=%v, want %v", c.key, ok, c.ok)
		}
		if ok && got != addr {
			t.Errorf("ChunkKeyAddr(%q) = %q", c.key, got)
		}
	}
}
