// Package storagetest exports the Backend conformance suite so every
// implementation — in-tree backends and out-of-tree ones like the remote
// HTTP client — runs the identical contract. The suite is the contract:
// a backend that passes it can sit under the checkpoint engine, the chunk
// store, and the recovery scanner without per-backend special cases.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Maker constructs a fresh, empty backend for one subtest. It is called
// once per property so state never leaks between properties.
type Maker func(t *testing.T) storage.Backend

// Run runs every generic conformance property as a named subtest against
// backends produced by mk.
func Run(t *testing.T, mk Maker) {
	props := []struct {
		name string
		fn   func(t *testing.T, b storage.Backend)
	}{
		{"PutGetRoundTrip", testPutGetRoundTrip},
		{"PutDoesNotRetainInput", testPutDoesNotRetainInput},
		{"Overwrite", testOverwrite},
		{"MissingKey", testMissingKey},
		{"Delete", testDelete},
		{"Stat", testStat},
		{"ListPrefixSorted", testListPrefixSorted},
		{"RejectsMalformedKeys", testRejectsMalformedKeys},
		{"ConcurrentPuts", testConcurrentPuts},
		{"GetRange", testGetRange},
		{"GetRangeEdgeCases", testGetRangeEdgeCases},
		{"CapabilitiesAndName", testCapabilitiesAndName},
		{"CapsAreHonest", testCapsAreHonest},
		{"ChunkStore", testChunkStore},
	}
	for _, p := range props {
		p := p
		t.Run(p.name, func(t *testing.T) {
			p.fn(t, mk(t))
		})
	}
}

func testPutGetRoundTrip(t *testing.T, b storage.Backend) {
	for _, data := range [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)} {
		key := fmt.Sprintf("k-%d", len(data))
		if err := b.Put(key, data); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
		got, err := b.Get(key)
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip mismatch for %q", key)
		}
	}
}

// testPutDoesNotRetainInput enforces the Backend.Put contract the pooled
// save pipeline depends on: the stored object must not alias the caller's
// slice, which is recycled scratch that gets overwritten the moment Put
// returns. A backend that kept the slice would pass every other
// conformance case and then corrupt checkpoints under load.
func testPutDoesNotRetainInput(t *testing.T, b storage.Backend) {
	data := bytes.Repeat([]byte{0x5A}, 1024)
	want := append([]byte(nil), data...)
	if err := b.Put("retain-probe", data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF // simulate pool reuse of the caller's buffer
	}
	got, err := b.Get("retain-probe")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("backend retained the caller's Put slice (stored bytes changed after the caller reused its buffer)")
	}
}

func testOverwrite(t *testing.T, b storage.Backend) {
	if err := b.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("k")
	if err != nil || string(got) != "v2" {
		t.Errorf("overwrite: got %q, %v", got, err)
	}
	keys, _ := b.List("")
	if len(keys) != 1 {
		t.Errorf("overwrite left %d keys", len(keys))
	}
}

func testMissingKey(t *testing.T, b storage.Backend) {
	if _, err := b.Get("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
	if _, err := b.Stat("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Stat(absent) = %v, want ErrNotFound", err)
	}
	if err := b.Delete("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Delete(absent) = %v, want ErrNotFound", err)
	}
}

func testDelete(t *testing.T, b storage.Backend) {
	if err := b.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("deleted key still readable: %v", err)
	}
}

func testStat(t *testing.T, b storage.Backend) {
	if err := b.Put("dir/k", bytes.Repeat([]byte{1}, 123)); err != nil {
		t.Fatal(err)
	}
	info, err := b.Stat("dir/k")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 123 || info.Key != "dir/k" {
		t.Errorf("stat = %+v", info)
	}
}

func testListPrefixSorted(t *testing.T, b storage.Backend) {
	for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/sub/3"} {
		if err := b.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := b.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("List(\"\") = %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Errorf("list not sorted: %v", all)
		}
	}
	bs, err := b.List("b/")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Errorf("List(b/) = %v", bs)
	}
}

func testRejectsMalformedKeys(t *testing.T, b storage.Backend) {
	for _, key := range []string{"", "/abs", "../escape", "a/../b", "a//b", "a\\b", "."} {
		if err := b.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, err := b.Get(key); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
		// A re-keying view relies on its base for this, so every keyed
		// method of every backend is held to it, and a miss is no excuse.
		if _, err := b.Stat(key); err == nil || errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Stat(%q) = %v, want a key error", key, err)
		}
		if err := b.Delete(key); err == nil || errors.Is(err, storage.ErrNotFound) {
			t.Errorf("Delete(%q) = %v, want a key error", key, err)
		}
	}
}

func testConcurrentPuts(t *testing.T, b storage.Backend) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("c/%02d", i)
			if err := b.Put(key, []byte(key)); err != nil {
				t.Errorf("concurrent put %s: %v", key, err)
			}
		}()
	}
	wg.Wait()
	keys, err := b.List("c/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 16 {
		t.Errorf("concurrent puts stored %d/16 keys", len(keys))
	}
}

func testGetRange(t *testing.T, b storage.Backend) {
	data := []byte("0123456789")
	if err := b.Put("k", data); err != nil {
		t.Fatal(err)
	}
	// Windows inside the object, ending exactly at EOF, and clamped there
	// (past-EOF reads return what exists). The second pass follows a full
	// Get, so a caching wrapper answers it from memory; scribbling on every
	// result proves no window aliases what a later read returns.
	windows := []struct {
		off, n int64
		want   string
	}{{2, 4, "2345"}, {0, 10, "0123456789"}, {6, 4, "6789"}, {9, 1, "9"}, {8, 10, "89"}, {0, 1 << 20, "0123456789"},
		// A length no allocation could honour: the window is sized by the
		// object, not by the request (n arrives unclamped from the wire).
		{0, math.MaxInt64, "0123456789"}, {3, math.MaxInt64, "3456789"}}
	for _, pass := range []string{"cold", "after Get"} {
		for _, w := range windows {
			got, err := storage.GetRange(b, "k", w.off, w.n)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != w.want {
				t.Errorf("%s: GetRange(%d,%d) = %q, want %q", pass, w.off, w.n, got, w.want)
			}
			for i := range got {
				got[i] = 'x'
			}
		}
		if full, err := b.Get("k"); err != nil || string(full) != string(data) {
			t.Fatalf("%s: Get after scribbling on range reads = %q, %v", pass, full, err)
		}
	}
	if _, err := storage.GetRange(b, "absent", 0, 4); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetRange(absent) = %v, want ErrNotFound", err)
	}
}

// testGetRangeEdgeCases pins the corners of the range-read contract on
// every backend: offsets at or past EOF and zero lengths are empty reads,
// negative offsets or lengths are errors, and a range on a missing key is
// ErrNotFound regardless of the range itself.
func testGetRangeEdgeCases(t *testing.T, b storage.Backend) {
	data := []byte("0123456789")
	if err := b.Put("k", data); err != nil {
		t.Fatal(err)
	}
	// Offset exactly at EOF, and far past it.
	for _, off := range []int64{10, 11, 1 << 20} {
		got, err := storage.GetRange(b, "k", off, 4)
		if err != nil {
			t.Errorf("GetRange(off=%d) = %v, want empty read", off, err)
		}
		if len(got) != 0 {
			t.Errorf("GetRange(off=%d) = %q, want empty", off, got)
		}
	}
	// Zero length is an empty read wherever it lands.
	for _, off := range []int64{0, 5, 10, 20} {
		got, err := storage.GetRange(b, "k", off, 0)
		if err != nil {
			t.Errorf("GetRange(off=%d, n=0) = %v", off, err)
		}
		if len(got) != 0 {
			t.Errorf("GetRange(off=%d, n=0) = %q", off, got)
		}
	}
	// Negative offsets and lengths are caller errors, not ErrNotFound.
	if _, err := storage.GetRange(b, "k", -1, 4); err == nil || errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetRange(off=-1) = %v, want range error", err)
	}
	if _, err := storage.GetRange(b, "k", 0, -4); err == nil || errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetRange(n=-4) = %v, want range error", err)
	}
	// Ranges on missing keys report the missing key, whatever the range.
	for _, r := range [][2]int64{{0, 4}, {100, 4}, {0, 0}} {
		if _, err := storage.GetRange(b, "absent", r[0], r[1]); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("GetRange(absent, %d, %d) = %v, want ErrNotFound", r[0], r[1], err)
		}
	}
}

func testCapabilitiesAndName(t *testing.T, b storage.Backend) {
	if b.Name() == "" {
		t.Errorf("empty backend name")
	}
	caps := b.Capabilities()
	if !caps.Atomic {
		t.Errorf("%s: checkpoint backends must be atomic", b.Name())
	}
}

// testCapsAreHonest cross-checks a backend's declared capability set
// against what it does: every handle is the backend itself (a handle to
// anything else lets calls skip the wrapper that declared it), a declared
// classed write is readable back, and a declared batch read is positional
// — a duplicate and an absent key each keep their slot.
func testCapsAreHonest(t *testing.T, b storage.Backend) {
	caps := storage.Caps(b)
	v := reflect.ValueOf(caps)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Interface && !f.IsNil() && f.Elem().Interface() != any(b) {
			t.Errorf("Caps().%s is %T, not the backend itself", v.Type().Field(i).Name, f.Elem().Interface())
		}
	}
	if caps.ClassWrite != nil {
		if err := caps.ClassWrite.PutClass("classed", []byte("delta"), storage.ClassDeltaChunk); err != nil {
			t.Fatal(err)
		}
		if got, err := b.Get("classed"); err != nil || string(got) != "delta" {
			t.Errorf("Get after declared PutClass = %q, %v", got, err)
		}
	}
	if caps.Batch != nil {
		if err := b.Put("p", []byte("p")); err != nil {
			t.Fatal(err)
		}
		out, errs := caps.Batch.GetBatch([]string{"p", "absent", "p"})
		if len(out) != 3 || len(errs) != 3 || string(out[0]) != "p" || string(out[2]) != "p" ||
			errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], storage.ErrNotFound) {
			t.Errorf("GetBatch(p, absent, p) = %q, %v: want positional results", out, errs)
		}
	}
}

// testChunkStore runs the chunk-store contract over the backend: round
// trip, dedup accounting, listing, and GC all behave identically whether
// the chunks live on a filesystem, in memory, or behind a wire.
func testChunkStore(t *testing.T, b storage.Backend) {
	cs := storage.NewChunkStore(b)
	addr, err := cs.Put([]byte("chunk"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Get(addr)
	if err != nil || string(got) != "chunk" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	// Dedup reports zero new bytes.
	written, err := cs.Ingest(addr, []byte("chunk"), storage.ClassDefault)
	if err != nil || written != 0 {
		t.Errorf("dedup Ingest wrote %d bytes, err %v", written, err)
	}
	addrs, err := cs.List()
	if err != nil || len(addrs) != 1 {
		t.Errorf("List = %v, %v", addrs, err)
	}
	if removed, _, err := cs.Sweep(addrs, nil, nil); err != nil || removed != 1 {
		t.Errorf("Sweep removed %d, err %v", removed, err)
	}
	if cs.Has(addr) {
		t.Errorf("chunk survived the sweep")
	}
}
