package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f.bin")
	data := []byte("hello checkpoint")
	if err := new(Local).writeFile(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("content mismatch")
	}
	// Overwrite works and leaves no temp files.
	if err := new(Local).writeFile(p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
	got, _ = os.ReadFile(p)
	if string(got) != "v2" {
		t.Errorf("overwrite failed: %q", got)
	}
}

func TestAtomicWriteFileBadDir(t *testing.T) {
	if err := new(Local).writeFile("/nonexistent-dir-xyz/f", []byte("x")); err == nil {
		t.Errorf("write into missing dir succeeded")
	}
}

// TestLocalPutLeavesNoTemp: a Put that succeeds — the first into a key
// directory that does not exist yet included — leaves its object at mode
// 0644 and no temporary file; one whose rename fails (the target is a
// non-empty directory) leaves no temporary file either.
func TestLocalPutLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"top", "a/b/obj", "a/b/obj"} {
		if err := l.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, filepath.FromSlash(key)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Fatalf("%s: mode %v, want 0644", key, fi.Mode().Perm())
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "a", "full", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("a/full", []byte("v")); err == nil {
		t.Fatal("a Put over a non-empty directory succeeded")
	}
	filepath.WalkDir(dir, func(p string, _ os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(filepath.Base(p), ".tmp-") {
			t.Errorf("temporary file left behind: %s", p)
		}
		return err
	})
}

// TestLocalCountsSyncs: every Put that lands costs one file sync and one
// directory sync, the first into a missing key directory included (its
// failed first attempt synced nothing); a Put whose rename fails synced
// its file but not the directory.
func TestLocalCountsSyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"top", "a/b/obj", "a/b/obj"} {
		if err := l.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if file, dirs := l.Syncs(); file != 3 || dirs != 3 {
		t.Errorf("after three Puts: %d file and %d directory syncs, want 3 and 3", file, dirs)
	}
	if err := os.MkdirAll(filepath.Join(dir, "a", "full", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Put("a/full", []byte("v")); err == nil {
		t.Fatal("a Put over a non-empty directory succeeded")
	}
	if file, dirs := l.Syncs(); file != 4 || dirs != 3 {
		t.Errorf("after a failed rename: %d file and %d directory syncs, want 4 and 3", file, dirs)
	}
	if _, err := l.Get("top"); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete("top"); err != nil {
		t.Fatal(err)
	}
	if file, dirs := l.Syncs(); file != 4 || dirs != 3 {
		t.Errorf("a Get and a Delete synced: %d file and %d directory syncs, want 4 and 3", file, dirs)
	}
}

func TestHashStable(t *testing.T) {
	a := Hash([]byte("abc"))
	b := Hash([]byte("abc"))
	if a != b || len(a) != 64 {
		t.Errorf("hash unstable or wrong length: %q %q", a, b)
	}
	if Hash([]byte("abd")) == a {
		t.Errorf("collision on trivially different input")
	}
}

// localChunkStore is a chunk store in the <dir>/<first2>/<hash> layout.
func localChunkStore(t *testing.T, dir string) *ChunkStore {
	t.Helper()
	b, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewChunkStore(b)
}

func TestChunkStorePutGet(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	data := []byte("chunk data")
	addr, err := cs.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if addr != Hash(data) {
		t.Errorf("address != content hash")
	}
	got, err := cs.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip mismatch")
	}
	if !cs.Has(addr) {
		t.Errorf("Has(addr) false")
	}
}

func TestChunkStoreDedup(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	a1, _ := cs.Put([]byte("same"))
	a2, _ := cs.Put([]byte("same"))
	if a1 != a2 {
		t.Errorf("same content, different addresses")
	}
	addrs, _ := cs.List()
	if len(addrs) != 1 {
		t.Errorf("dedup stored %d chunks", len(addrs))
	}
}

func TestChunkStoreGetMissing(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	missing := Hash([]byte("never stored"))
	if _, err := cs.Get(missing); !errors.Is(err, ErrChunkNotFound) {
		t.Errorf("want ErrChunkNotFound, got %v", err)
	}
}

func TestChunkStoreRejectsMalformedAddr(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	for _, addr := range []string{"", "short", "../../../etc/passwd", string(make([]byte, 64))} {
		if _, err := cs.Get(addr); err == nil {
			t.Errorf("malformed address %q accepted", addr)
		}
		if cs.Has(addr) {
			t.Errorf("Has(%q) true", addr)
		}
	}
}

func TestChunkStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cs := localChunkStore(t, dir)
	addr, _ := cs.Put([]byte("precious state"))
	// Flip a byte on disk.
	p := filepath.Join(dir, addr[:2], addr)
	raw, _ := os.ReadFile(p)
	raw[0] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(addr); err == nil {
		t.Errorf("corrupt chunk returned without error")
	}
}

func TestChunkStoreListSorted(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	for _, s := range []string{"a", "b", "c", "d"} {
		if _, err := cs.Put([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	addrs, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 4 {
		t.Fatalf("listed %d chunks", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			t.Errorf("list not sorted")
		}
	}
}

func TestChunkStoreGC(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	keepAddr, _ := cs.Put([]byte("keep me"))
	dropAddr, _ := cs.Put([]byte("drop me"))
	addrs, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	removed, reclaimed, err := cs.Sweep(addrs, func(addr string) bool { return addr == keepAddr }, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed != int64(len("drop me")) {
		t.Errorf("GC removed=%d reclaimed=%d", removed, reclaimed)
	}
	if !cs.Has(keepAddr) || cs.Has(dropAddr) {
		t.Errorf("GC kept/dropped wrong chunks")
	}
}

func TestChunkStoreTotalBytes(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	cs.Put([]byte("12345"))
	cs.Put([]byte("678"))
	total, err := cs.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Errorf("total = %d, want 8", total)
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	cs := localChunkStore(t, t.TempDir())
	f := func(data []byte) bool {
		addr, err := cs.Put(data)
		if err != nil {
			return false
		}
		got, err := cs.Get(addr)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeviceWriteCost(t *testing.T) {
	d := Device{Name: "test", Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	// 1 MB at 1 MB/s = 1 s + 1 ms latency.
	got := d.WriteCost(1_000_000)
	want := time.Second + time.Millisecond
	if got != want {
		t.Errorf("WriteCost = %v, want %v", got, want)
	}
	if d.ReadCost(0) != time.Millisecond {
		t.Errorf("zero-byte cost should be pure latency")
	}
}

func TestDeviceOrdering(t *testing.T) {
	// For a 1 MB checkpoint: NVMe < NFS < object store.
	n := 1 << 20
	if !(DeviceNVMe.WriteCost(n) < DeviceNFS.WriteCost(n) && DeviceNFS.WriteCost(n) < DeviceObject.WriteCost(n)) {
		t.Errorf("device tier ordering violated: %v %v %v",
			DeviceNVMe.WriteCost(n), DeviceNFS.WriteCost(n), DeviceObject.WriteCost(n))
	}
}

func TestDeviceValidation(t *testing.T) {
	d := Device{Name: "bad"}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("zero bandwidth accepted")
			}
		}()
		d.WriteCost(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("negative size accepted")
			}
		}()
		DeviceNVMe.WriteCost(-1)
	}()
}

// TestValidateKeyZeroAllocs keeps the key check free on the save path: it
// runs at every layer of the wrapper stack, several times per dirty chunk.
// storagetest's RejectsMalformedKeys is the behaviour oracle.
func TestValidateKeyZeroAllocs(t *testing.T) {
	key := "jobs/j0/chunks/ab/" + Hash([]byte("x"))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ValidateKey(key); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ValidateKey: %v allocs/op, want 0", allocs)
	}
}

// TestValidateKeyMatchesSegmentRule checks the in-place walk against the
// rule as it reads: no empty, "." or ".." segment and no backslash.
func TestValidateKeyMatchesSegmentRule(t *testing.T) {
	valid := func(key string) bool {
		if key == "" || strings.Contains(key, "\\") {
			return false
		}
		for _, seg := range strings.Split(key, "/") {
			if seg == "" || seg == "." || seg == ".." {
				return false
			}
		}
		return true
	}
	alphabet := []string{"a", "bc", ".", "..", "/", "\\", ""}
	if err := quick.Check(func(picks []uint8) bool {
		var key string
		for _, p := range picks {
			key += alphabet[int(p)%len(alphabet)]
		}
		return (ValidateKey(key) == nil) == valid(key)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
