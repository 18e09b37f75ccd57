package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
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
		var gets atomic.Int64
		cs := NewChunkStore(Observe(mem, countOps(OpGet, &gets)))
		if _, err := tc.read(cs, addr); err != nil {
			t.Fatal(err)
		}
		gets.Store(0)
		if written, err := cs.Ingest(addr, data, ClassDefault); err != nil || written != 0 || gets.Load() != int64(tc.gets) {
			t.Errorf("dedup hit: written=%d err=%v after %d reads of the resident copy, want 0, nil, %d", written, err, gets.Load(), tc.gets)
		}
	}
}

// countOps is a Hook that counts the operations of one kind that reach
// the backend beneath it.
func countOps(kind OpKind, n *atomic.Int64) Hook {
	return func(op Op) (int64, error) {
		if !op.After && op.Kind == kind {
			n.Add(1)
		}
		return 0, nil
	}
}

// TestChunkStoreConcurrentIngest hammers one store from many goroutines
// mixing Ingest, Get and re-Ingest — the multi-tenant access pattern — and
// checks every chunk comes back bitwise. Run with -race to check the
// verified set's locking.
func TestChunkStoreConcurrentIngest(t *testing.T) {
	cs := NewChunkStore(NewMem())
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
	removed, _, err := cs.Sweep(inventory, func(addr string) bool { return addr == old }, true, nil)
	if err != nil || removed != 0 {
		t.Fatalf("skipped sweep: removed=%d err=%v, want 0", removed, err)
	}
	if !cs.Has(old) {
		t.Fatalf("skip predicate ignored")
	}
	// …and without it the listed orphan goes while later ingests survive.
	removed, _, err = cs.Sweep(inventory, nil, true, nil)
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
	if removed, _, err := cs.Sweep([]string{gone}, nil, true, nil); err != nil || removed != 1 {
		t.Fatalf("first sweep: removed=%d err=%v", removed, err)
	}
	var credited []string
	removed, reclaimed, err := cs.Sweep([]string{gone, never, there, "not an address"}, nil, true, func(addr string, size int64) {
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

// TestUnsizedSweepMakesNoStat: an unsized sweep (a retention pass's)
// deletes and counts what a sized one would — not an absent address, not
// one skip excuses — with no Stat at all, and hands onRemoved size 0.
func TestUnsizedSweepMakesNoStat(t *testing.T) {
	var stats atomic.Int64
	cs := NewChunkStore(Observe(NewMem(), countOps(OpStat, &stats)))
	var addrs []string
	for _, data := range []string{"dropped", "kept", "dropped too"} {
		addr, err := cs.Put([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	kept, never := addrs[1], Hash([]byte("never written"))
	stats.Store(0)
	var credited []string
	removed, reclaimed, err := cs.Sweep(append(addrs, never, "not an address"), func(addr string) bool { return addr == kept }, false, func(addr string, size int64) {
		credited = append(credited, addr)
		if size != 0 {
			t.Errorf("onRemoved(%.8s…) size %d, want 0", addr, size)
		}
	})
	if err != nil || removed != 2 || reclaimed != 0 || stats.Load() != 0 {
		t.Errorf("unsized sweep: removed=%d reclaimed=%d err=%v after %d Stats, want 2, 0 and none", removed, reclaimed, err, stats.Load())
	}
	if len(credited) != 2 || credited[0] != addrs[0] || credited[1] != addrs[2] {
		t.Errorf("onRemoved saw %v, want the two chunks the sweep deleted", credited)
	}
	if left, err := cs.List(); err != nil || len(left) != 1 || left[0] != kept {
		t.Errorf("chunks left %v (err %v), want only the excused one", left, err)
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
