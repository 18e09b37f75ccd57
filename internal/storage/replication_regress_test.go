package storage_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestTieredClassRewriteReplicatedNoStaleShadow is the stale-shadow
// regression for class-routed rewrites over a replicated level: a key
// resident cold (on a 3-way quorum store) is rewritten with a class that
// routes it hot while one cold replica is lagging (rejecting writes).
// PutClass's DeleteOutside must quorum-tombstone the cold copy so that
// read-through never serves the stale bytes — not even if the hot copy
// is later lost — and anti-entropy must converge the lagging replica to
// the tombstone rather than resurrect the shadow.
func TestTieredClassRewriteReplicatedNoStaleShadow(t *testing.T) {
	rb, faults, mems := newFaultSet(t)
	hot := storage.NewMem()
	tiered, err := storage.NewTiered(
		storage.Level{Name: "hot", Backend: hot},
		storage.Level{Name: "cold", Backend: rb},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiered.SetPlacement(storage.PlacementPolicy{Delta: "cold"}); err != nil {
		t.Fatal(err)
	}

	const key = "objects/rewrite-target"
	v1 := []byte("stale shadow candidate v1")
	v2 := []byte("fresh hot copy v2")

	if err := tiered.PutClass(key, v1, storage.ClassDeltaChunk); err != nil {
		t.Fatal(err)
	}
	rb.Close() // barrier: straggler replica writes land
	// Sanity: the write landed cold, replicated on every member.
	for i, mem := range mems {
		if _, err := mem.Get(key); err != nil {
			t.Fatalf("replica %d missing cold copy: %v", i, err)
		}
	}

	// Replica 2 starts lagging: it serves reads but rejects every write,
	// so the coming tombstone cannot reach it.
	faults[2].setRejectPuts(true)

	// Class-routed rewrite to the hot level. DeleteOutside runs against
	// the replicated cold level and must succeed at quorum (2 of 3).
	if err := tiered.PutClass(key, v2, storage.ClassManifest); err != nil {
		t.Fatal(err)
	}

	got, err := tiered.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("read after rewrite = %q, want %q", got, v2)
	}
	// The cold level must not serve the shadow: the quorum tombstone
	// outranks the lagging replica's live v1 on any read-quorum.
	if _, err := rb.Get(key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cold level still serves a copy: err=%v", err)
	}

	// Heal the laggard and run anti-entropy: the tombstone must win over
	// its stale live copy, not the other way around.
	faults[2].setRejectPuts(false)
	st, err := rb.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("repair errors: %+v", st)
	}
	if _, err := rb.Get(key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cold level resurrected the shadow after repair: err=%v", err)
	}

	// Even losing the hot copy outright must not bring v1 back through
	// read-through fall-through.
	if err := hot.Delete(key); err != nil {
		t.Fatal(err)
	}
	if data, err := tiered.Get(key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("stale shadow resurrected: data=%q err=%v", data, err)
	}
}

// TestCoalescerInvalidatesOnFailedQuorumWrite pins the replication-aware
// cache rule: a Put that fails its write-quorum may still have landed on
// a minority replica, and that copy can win a later quorum read (it
// carries the highest version). The coalescer must therefore drop its
// cached entry even when the base write errors — serving the old bytes
// from cache after the new value becomes readable would be a staleness
// inversion no replica ever exhibits.
func TestCoalescerInvalidatesOnFailedQuorumWrite(t *testing.T) {
	rb, faults, _ := newFaultSet(t)
	co := storage.NewCoalescerShards(rb, 1<<20, 1)

	const key = "objects/cached"
	v1 := []byte("cached value v1")
	v2 := []byte("minority-landed value v2")

	if err := co.Put(key, v1); err != nil {
		t.Fatal(err)
	}
	got, err := co.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatalf("warm read = %q, want %q", got, v1)
	}

	// Two replicas reject writes: the overwrite fails its quorum (W=2)
	// but still lands on replica 0 at the next version.
	faults[1].setRejectPuts(true)
	faults[2].setRejectPuts(true)
	if err := co.Put(key, v2); err == nil {
		t.Fatal("quorum write unexpectedly succeeded with 2/3 replicas rejecting")
	}
	// The failed Put returns at its second rejection, possibly before
	// replica 0's copy lands; drain it so Repair sees v2 on replica 0.
	rb.Close()

	// Heal and converge: anti-entropy propagates the highest version —
	// the minority-landed v2 — to every replica.
	faults[1].setRejectPuts(false)
	faults[2].setRejectPuts(false)
	st, err := rb.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("repair errors: %+v", st)
	}

	// The regression: before the invalidate-on-failure fix the coalescer
	// still held v1 and served it here, contradicting the store.
	got, err = co.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("coalescer served stale cache after failed quorum write: %q", got)
	}
}
