package storage

import (
	"errors"
	"fmt"
	"testing"
)

func twoLevel(t *testing.T) *Tiered {
	t.Helper()
	tb, err := NewTiered(Level{Name: "hot", Backend: NewMem()}, Level{Name: "cold", Backend: NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// moveTo relocates key to exactly level target the way core.Migrate does:
// CopyTo (copy, read back, verify), then DeleteOutside.
func moveTo(t *testing.T, tb *Tiered, key string, target int) {
	t.Helper()
	if _, err := tb.CopyTo(key, target); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteOutside(key, target); err != nil {
		t.Fatal(err)
	}
}

func TestTieredValidation(t *testing.T) {
	if _, err := NewTiered(); err == nil {
		t.Errorf("empty level list accepted")
	}
	if _, err := NewTiered(Level{Name: "", Backend: NewMem()}); err == nil {
		t.Errorf("unnamed level accepted")
	}
	if _, err := NewTiered(Level{Name: "a", Backend: nil}); err == nil {
		t.Errorf("backend-less level accepted")
	}
	if _, err := NewTiered(Level{Name: "a", Backend: NewMem()}, Level{Name: "a", Backend: NewMem()}); err == nil {
		t.Errorf("duplicate level names accepted")
	}
}

func TestTieredPlacementAndReadThrough(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Writes land hot.
	if lv, err := tb.Residency("k"); err != nil || lv != 0 {
		t.Fatalf("Residency after Put = %d, %v", lv, err)
	}
	if _, err := tb.Level(1).Backend.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cold level holds a fresh write")
	}
	// A move down: the object stays readable, the hit is charged to the
	// cold level, and the bytes are booked there.
	moveTo(t, tb, "k", 1)
	if lv, _ := tb.Residency("k"); lv != 1 {
		t.Errorf("Residency after move down = %d", lv)
	}
	if _, err := tb.Level(0).Backend.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("hot copy survived the move")
	}
	got, err := tb.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("read-through after move: %q, %v", got, err)
	}
	if got, err := GetRange(tb, "k", 0, 1); err != nil || string(got) != "v" {
		t.Errorf("range read-through after move: %q, %v", got, err)
	}
	if st := tb.Stats(); st.Hits[1] == 0 {
		t.Errorf("stats = %+v", st)
	}
	if occ, err := tb.Occupancy(); err != nil || occ[0].Objects != 0 || occ[1].Bytes != 1 {
		t.Errorf("occupancy after move = %+v, %v", occ, err)
	}
	// And back up.
	moveTo(t, tb, "k", 0)
	if lv, _ := tb.Residency("k"); lv != 0 {
		t.Errorf("Residency after move up = %d", lv)
	}
}

// TestTieredMoveDirectionChecks pins CopyTo's argument checks: a level out
// of range and an absent key are refused, and a key already resident on
// the target copies nothing.
func TestTieredMoveDirectionChecks(t *testing.T) {
	tb := twoLevel(t)
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CopyTo("k", 5); err == nil {
		t.Errorf("CopyTo out-of-range level accepted")
	}
	if _, err := tb.CopyTo("k", -1); err == nil {
		t.Errorf("CopyTo negative level accepted")
	}
	if _, err := tb.CopyTo("absent", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("CopyTo(absent) = %v, want ErrNotFound", err)
	}
	if n, err := tb.CopyTo("k", 0); err != nil || n != 0 {
		t.Errorf("CopyTo onto the resident level = %d, %v, want a no-op", n, err)
	}
	if n, err := tb.CopyTo("k", 1); err != nil || n != 1 {
		t.Errorf("CopyTo down = %d, %v", n, err)
	}
	// The copy half alone leaves both copies; the warmest still answers.
	if lv, _ := tb.Residency("k"); lv != 0 {
		t.Errorf("Residency after CopyTo alone = %d", lv)
	}
	if removed, err := tb.DeleteOutside("k", 1); err != nil || removed != 1 {
		t.Errorf("DeleteOutside = %d, %v", removed, err)
	}
	if removed, err := tb.DeleteOutside("absent", 1); err != nil || removed != 0 {
		t.Errorf("DeleteOutside(absent) = %d, %v, want nothing removed", removed, err)
	}
}

func TestTieredListDeleteSpanLevels(t *testing.T) {
	tb := twoLevel(t)
	for _, k := range []string{"a", "b", "c"} {
		if err := tb.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	moveTo(t, tb, "b", 1)
	keys, err := tb.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf("union list = %v", keys)
	}
	// Stat sees the moved copy.
	if info, err := tb.Stat("b"); err != nil || info.Size != 1 {
		t.Errorf("Stat(b) = %+v, %v", info, err)
	}
	// Delete clears every level, and an object duplicated by an
	// interrupted move is fully removed.
	if _, err := tb.CopyTo("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Len(); i++ {
		if _, err := tb.Level(i).Backend.Get("a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("level %d still holds deleted key", i)
		}
	}
	if err := tb.Delete("b"); err != nil {
		t.Errorf("delete of cold-only key: %v", err)
	}
}

func TestTieredOccupancy(t *testing.T) {
	tb := twoLevel(t)
	tb.Put("a", make([]byte, 10))
	tb.Put("b", make([]byte, 20))
	moveTo(t, tb, "b", 1)
	occ, err := tb.Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if occ[0].Name != "hot" || occ[0].Objects != 1 || occ[0].Bytes != 10 {
		t.Errorf("hot occupancy = %+v", occ[0])
	}
	if occ[1].Name != "cold" || occ[1].Objects != 1 || occ[1].Bytes != 20 {
		t.Errorf("cold occupancy = %+v", occ[1])
	}
}

func TestTieredDirLayout(t *testing.T) {
	dir := t.TempDir()
	tb, err := NewTieredDir(dir, []string{"nvme", "object"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.Level(0).Name != "nvme" {
		t.Fatalf("layout = %s", tb.Name())
	}
	if err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	moveTo(t, tb, "k", 1)
	// The cold level is invisible to a plain hot-root backend (dot-dir).
	hot, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := hot.List(""); len(keys) != 0 {
		t.Errorf("hot root leaks cold objects: %v", keys)
	}
	// A fresh open sees the moved object (the layout persists).
	tb2, err := NewTieredDir(dir, []string{"nvme", "object"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tb2.Get("k"); err != nil || string(got) != "v" {
		t.Errorf("reopened layout: %q, %v", got, err)
	}
	if lv, _ := tb2.Residency("k"); lv != 1 {
		t.Errorf("residency lost across reopen: %d", lv)
	}
	// Unknown device names are rejected.
	if _, err := NewTieredDir(dir, []string{"floppy"}); err == nil {
		t.Errorf("unknown device accepted")
	}
	if _, err := NewTieredDir(dir, nil); err == nil {
		t.Errorf("empty level list accepted")
	}
}

// TestTieredGetBatch spreads objects across both levels and batch-reads
// them: every key must come back from its resident level (hit counters
// prove both level goroutines served), missing keys must report
// ErrNotFound positionally, and a duplicate residency must resolve to
// the warmest copy.
func TestTieredGetBatch(t *testing.T) {
	hot, cold := NewMem(), NewMem()
	tb, err := NewTiered(Level{Name: "hot", Backend: hot}, Level{Name: "cold", Backend: cold})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tb.Put(fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("hot-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := cold.Put(fmt.Sprintf("c%d", i), []byte(fmt.Sprintf("cold-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// One key resident on both levels: the warm copy must win.
	hot.Put("dup", []byte("warm"))
	cold.Put("dup", []byte("stale"))

	keys := []string{"h0", "c0", "h1", "c1", "h2", "c2", "h3", "c3", "dup", "absent"}
	out, errs := tb.GetBatch(keys)
	for i, k := range keys[:8] {
		want := "hot-" + k[1:]
		if k[0] == 'c' {
			want = "cold-" + k[1:]
		}
		if errs[i] != nil || string(out[i]) != want {
			t.Errorf("batch[%d] %s: %q, %v", i, k, out[i], errs[i])
		}
	}
	if string(out[8]) != "warm" {
		t.Errorf("duplicate residency served the cold copy: %q", out[8])
	}
	if !errors.Is(errs[9], ErrNotFound) {
		t.Errorf("absent key error: %v", errs[9])
	}
	st := tb.Stats()
	if st.Hits[0] < 5 || st.Hits[1] < 4 || st.Misses != 1 {
		t.Errorf("hit accounting after batch: %+v", st)
	}
}
