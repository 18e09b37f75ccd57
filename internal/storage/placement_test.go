package storage

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTieredClassPlacement(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.SetPlacement(PlacementPolicy{Delta: "cold", Archive: "cold"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("m", []byte("manifest"), ClassManifest); err != nil {
		t.Fatal(err)
	}
	if lv, err := tb.Residency("m"); err != nil || lv != 0 {
		t.Fatalf("manifest residency = %d, %v (want hot)", lv, err)
	}
	if err := tb.PutClass("d", []byte("delta"), ClassDeltaChunk); err != nil {
		t.Fatal(err)
	}
	if lv, err := tb.Residency("d"); err != nil || lv != 1 {
		t.Fatalf("delta residency = %d, %v (want cold)", lv, err)
	}
	if got, err := tb.Get("d"); err != nil || string(got) != "delta" {
		t.Fatalf("read-through of policy-placed delta: %q, %v", got, err)
	}
	// Plain Put keeps the default write-to-hot rule even under a policy.
	if err := tb.Put("p", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if lv, _ := tb.Residency("p"); lv != 0 {
		t.Errorf("plain Put residency = %d under policy", lv)
	}
	// A zero policy restores write-to-hot for every class.
	if err := tb.SetPlacement(PlacementPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("d2", []byte("delta2"), ClassDeltaChunk); err != nil {
		t.Fatal(err)
	}
	if lv, _ := tb.Residency("d2"); lv != 0 {
		t.Errorf("delta residency = %d after policy reset", lv)
	}
}

func TestSetPlacementUnknownLevel(t *testing.T) {
	tb := twoLevel(t)
	err := tb.SetPlacement(PlacementPolicy{Delta: "nvme"})
	if err == nil || !strings.Contains(err.Error(), "nvme") {
		t.Fatalf("unknown level accepted: %v", err)
	}
}

func TestOccupancyByClass(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.SetPlacement(PlacementPolicy{Delta: "cold"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("m", []byte("manifest!"), ClassManifest); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("a", []byte("anchor"), ClassAnchorChunk); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("d", []byte("delta"), ClassDeltaChunk); err != nil {
		t.Fatal(err)
	}
	occ, err := tb.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	classBytes := func(lv int, class string) int64 {
		for _, c := range occ[lv].ByClass {
			if c.Class == class {
				return c.Bytes
			}
		}
		return 0
	}
	if got := classBytes(0, "manifest"); got != 9 {
		t.Errorf("hot manifest bytes = %d", got)
	}
	if got := classBytes(0, "anchor"); got != 6 {
		t.Errorf("hot anchor bytes = %d", got)
	}
	if got := classBytes(0, "delta"); got != 0 {
		t.Errorf("delta bytes on hot = %d", got)
	}
	if got := classBytes(1, "delta"); got != 5 {
		t.Errorf("cold delta bytes = %d", got)
	}
	// Deleting drops the class attribution with the object.
	if err := tb.Delete("d"); err != nil {
		t.Fatal(err)
	}
	occ, err = tb.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range occ[1].ByClass {
		if c.Class == "delta" {
			t.Errorf("deleted delta still attributed: %+v", c)
		}
	}
}

// TestChunkStoreClassPlacement drives classed ingests through the full
// mount chain — chunk store → prefixed "chunks/" view → tiered store —
// and checks the class decides the landing level while dedup semantics
// are untouched.
func TestChunkStoreClassPlacement(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.SetPlacement(PlacementPolicy{Delta: "cold"}); err != nil {
		t.Fatal(err)
	}
	cs := NewChunkStore(WithPrefix(tb, "chunks"))
	delta := []byte("delta chunk payload")
	addr := Hash(delta)
	written, err := cs.Ingest(addr, delta, ClassDeltaChunk)
	if err != nil || written != len(delta) {
		t.Fatalf("delta ingest: written=%d err=%v", written, err)
	}
	key := "chunks/" + addr[:2] + "/" + addr
	if lv, err := tb.Residency(key); err != nil || lv != 1 {
		t.Fatalf("delta chunk residency = %d, %v (want cold)", lv, err)
	}
	anchor := []byte("anchor chunk payload")
	aaddr := Hash(anchor)
	if _, err := cs.Ingest(aaddr, anchor, ClassAnchorChunk); err != nil {
		t.Fatal(err)
	}
	akey := "chunks/" + aaddr[:2] + "/" + aaddr
	if lv, err := tb.Residency(akey); err != nil || lv != 0 {
		t.Fatalf("anchor chunk residency = %d, %v (want hot)", lv, err)
	}
	// A dedup hit leaves the resident copy where it lives, whatever class
	// the hit carries.
	if w, err := cs.Ingest(addr, delta, ClassAnchorChunk); err != nil || w != 0 {
		t.Fatalf("re-ingest: written=%d err=%v", w, err)
	}
	if lv, _ := tb.Residency(key); lv != 1 {
		t.Errorf("dedup hit moved the chunk to level %d", lv)
	}
	if got, err := cs.Get(addr); err != nil || !bytes.Equal(got, delta) {
		t.Fatalf("chunk read-through: %v", err)
	}
}

// faultBackend injects failures into a level backend to exercise the
// torn-move protections of Tiered.CopyTo: failPut makes every copy
// attempt fail, corruptGet returns flipped bytes so the copy's read-back
// verification fails after the copy landed.
type faultBackend struct {
	Backend
	failPut    bool
	corruptGet bool
}

var errInjectedPut = errors.New("injected put failure")

func (f *faultBackend) Put(key string, data []byte) error {
	if f.failPut {
		return errInjectedPut
	}
	return f.Backend.Put(key, data)
}

func (f *faultBackend) Get(key string) ([]byte, error) {
	data, err := f.Backend.Get(key)
	if err == nil && f.corruptGet && len(data) > 0 {
		data[0] ^= 0xff // Mem.Get returns a copy; the store is untouched
	}
	return data, err
}

func faultedTiered(t *testing.T, hot, cold Backend) *Tiered {
	t.Helper()
	tb, err := NewTiered(Level{Name: "hot", Backend: hot}, Level{Name: "cold", Backend: cold})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// assertOnlyOn fails unless key's one copy is readable on level want:
// Residency names it and Occupancy books one object there and none
// elsewhere.
func assertOnlyOn(t *testing.T, tb *Tiered, key string, want int) {
	t.Helper()
	if lv, err := tb.Residency(key); err != nil || lv != want {
		t.Fatalf("residency of %s = %d, %v, want %d", key, lv, err, want)
	}
	if got, err := tb.Get(key); err != nil || string(got) != "v" {
		t.Fatalf("%s unreadable: %q, %v", key, got, err)
	}
	occ, err := tb.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	for i, lv := range occ {
		n := 0
		if i == want {
			n = 1
		}
		if lv.Objects != n {
			t.Errorf("level %s holds %d objects, want %d", lv.Name, lv.Objects, n)
		}
	}
}

// A demotion is CopyTo a colder level, then DeleteOutside. When the copy
// fails, the move stops before its delete half and the source stays.
func TestDemoteCopyFailureRetainsSource(t *testing.T) {
	tb := faultedTiered(t, NewMem(), &faultBackend{Backend: NewMem(), failPut: true})
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, err := tb.CopyTo("k", 1); !errors.Is(err, errInjectedPut) || n != 0 {
		t.Fatalf("CopyTo = %d, %v", n, err)
	}
	assertOnlyOn(t, tb, "k", 0)
}

func TestDemoteVerifyFailureRetainsSource(t *testing.T) {
	tb := faultedTiered(t, NewMem(), &faultBackend{Backend: NewMem(), corruptGet: true})
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	n, err := tb.CopyTo("k", 1)
	if err == nil || !strings.Contains(err.Error(), "corrupt") || n != 0 {
		t.Fatalf("CopyTo = %d, %v (want verify failure)", n, err)
	}
	// The read-back refused the copy, so the caller never reaches
	// DeleteOutside: the hot copy is the one a read returns.
	if lv, err := tb.Residency("k"); err != nil || lv != 0 {
		t.Fatalf("source residency after failed verify = %d, %v", lv, err)
	}
	if got, err := tb.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("source unreadable after failed verify: %q, %v", got, err)
	}
}

// A promotion is CopyTo a warmer level; a failed copy leaves the cold
// source alone.
func TestPromoteCopyFailureRetainsSource(t *testing.T) {
	hot := &faultBackend{Backend: NewMem()}
	tb := faultedTiered(t, hot, NewMem())
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	moveTo(t, tb, "k", 1)
	hot.failPut = true
	if n, err := tb.CopyTo("k", 0); !errors.Is(err, errInjectedPut) || n != 0 {
		t.Fatalf("CopyTo = %d, %v", n, err)
	}
	assertOnlyOn(t, tb, "k", 1)
}

// TestPutClassSupersedesResidentCopy proves an overwrite routed to a
// different level than the resident copy removes the old bytes: without
// that, hot-first read-through would keep serving the superseded copy —
// the chunk store's corruption repair rewrites a corrupt hot chunk
// through exactly this path.
func TestPutClassSupersedesResidentCopy(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.Put("k", []byte("old hot bytes")); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPlacement(PlacementPolicy{Delta: "cold"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.PutClass("k", []byte("new cold bytes"), ClassDeltaChunk); err != nil {
		t.Fatal(err)
	}
	if got, err := tb.Get("k"); err != nil || string(got) != "new cold bytes" {
		t.Fatalf("read after rerouted overwrite = %q, %v (stale hot copy wins?)", got, err)
	}
	if lv, err := tb.Residency("k"); err != nil || lv != 1 {
		t.Fatalf("residency = %d, %v (want cold only)", lv, err)
	}
	if _, err := tb.Level(0).Backend.Stat("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hot level still holds superseded copy: %v", err)
	}
	// The symmetric direction: overwriting a cold resident with a
	// hot-routed class drops the cold copy.
	if err := tb.PutClass("k", []byte("promoted"), ClassManifest); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Level(1).Backend.Stat("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cold level still holds superseded copy: %v", err)
	}
	if got, err := tb.Get("k"); err != nil || string(got) != "promoted" {
		t.Fatalf("read after hot overwrite = %q, %v", got, err)
	}
}

// TestChunkRepairSupersedesCorruptHotCopy replays the repair
// fall-through over a tiered store: a corrupt resident chunk on hot is
// rewritten by a classed Ingest with a delta class routed cold, and
// the corrupt hot copy must not keep winning reads afterwards.
func TestChunkRepairSupersedesCorruptHotCopy(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.SetPlacement(PlacementPolicy{Delta: "cold"}); err != nil {
		t.Fatal(err)
	}
	cs := NewChunkStore(tb)
	good := []byte("good chunk bytes")
	addr := Hash(good)
	key := addr[:2] + "/" + addr
	// A same-size corrupt copy resident on hot (as if it rotted in place).
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if err := tb.Level(0).Backend.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	written, err := cs.Ingest(addr, good, ClassDeltaChunk)
	if err != nil {
		t.Fatal(err)
	}
	if written != len(good) {
		t.Fatalf("repair wrote %d bytes, want %d", written, len(good))
	}
	if data, err := cs.Get(addr); err != nil || !bytes.Equal(data, good) {
		t.Fatalf("post-repair read = %q, %v (corrupt hot copy still wins?)", data, err)
	}
	if _, err := tb.Level(0).Backend.Stat(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt hot copy survived the repair: %v", err)
	}
}
