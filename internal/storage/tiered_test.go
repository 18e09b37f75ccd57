package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
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
// prove both levels served), missing keys must report ErrNotFound
// positionally, and a duplicate residency must resolve to the warmest
// copy.
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

// opLog counts, per key, the operations that reach one store.
type opLog struct {
	mu   sync.Mutex
	seen map[string]int
}

// hook is an Observe hook that logs each before-call and fails the ones
// whose key is in fail with its error.
func (l *opLog) hook(fail map[string]error) Hook {
	return func(op Op) (int64, error) {
		if op.After {
			return 0, nil
		}
		l.mu.Lock()
		l.seen[op.Key]++
		l.mu.Unlock()
		return 0, fail[op.Key]
	}
}

// take returns the log and empties it.
func (l *opLog) take() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.seen
	l.seen = map[string]int{}
	return seen
}

// TestTieredGetBatchTraffic counts what a batch read costs each level of
// Tiered(Mem, Replicated 3×Mem), through Observe hooks on the hot level, on
// the cold level and on each cold replica: a level is asked, once per key,
// only for the keys every warmer level answered with ErrNotFound, so a
// hot-resident batch never reaches the cold level and a warm copy hides a
// cold one, exactly as Get reads.
func TestTieredGetBatchTraffic(t *testing.T) {
	hotMem := NewMem()
	hot, cold, replicas := &opLog{seen: map[string]int{}}, &opLog{seen: map[string]int{}}, &opLog{seen: map[string]int{}}
	down := errors.New("hot level down")
	members := make([]Replica, 3)
	for i := range members {
		members[i] = Replica{Backend: Observe(NewMem(), replicas.hook(nil))}
	}
	// W = 3: a write returns once every replica has it, so no straggler
	// reaches a replica after the logs are emptied.
	rb, err := NewReplicated(ReplicatedOptions{WriteQuorum: 3}, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })
	tb, err := NewTiered(Level{Name: "hot", Backend: Observe(hotMem, hot.hook(map[string]error{"broken": down}))},
		Level{Name: "cold", Backend: Observe(rb, cold.hook(nil))})
	if err != nil {
		t.Fatal(err)
	}
	var hotKeys, coldKeys []string
	for i := 0; i < 100; i++ {
		hotKeys = append(hotKeys, fmt.Sprintf("h%03d", i))
		if err := hotMem.Put(hotKeys[i], []byte(hotKeys[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		coldKeys = append(coldKeys, fmt.Sprintf("c%02d", i))
		if err := rb.Put(coldKeys[i], []byte(coldKeys[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"dup", "broken"} {
		if err := hotMem.Put(k, []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if err := rb.Put(k, []byte("cold")); err != nil {
			t.Fatal(err)
		}
	}
	// settle drains the replicated level's stragglers (a read's late
	// replica answers), then empties the three logs.
	settle := func() (h, c, r map[string]int) {
		rb.Close()
		return hot.take(), cold.take(), replicas.take()
	}
	settle()

	// once reports whether log holds exactly keys, each asked once.
	once := func(log map[string]int, keys ...string) bool {
		if len(log) != len(keys) {
			return false
		}
		for _, k := range keys {
			if log[k] != 1 {
				return false
			}
		}
		return true
	}
	ops := func(log map[string]int) (n int) {
		for _, c := range log {
			n += c
		}
		return n
	}
	read := func(keys []string, want func(i int) string) {
		t.Helper()
		out, errs := tb.GetBatch(keys)
		for i, k := range keys {
			if errs[i] != nil || string(out[i]) != want(i) {
				t.Errorf("batch[%d] %s = %q, %v; want %q", i, k, out[i], errs[i], want(i))
			}
		}
	}

	t.Run("hot-resident", func(t *testing.T) {
		read(hotKeys, func(i int) string { return hotKeys[i] })
		if h, c, r := settle(); !once(h, hotKeys...) || len(c) != 0 || len(r) != 0 {
			t.Errorf("100 hot-resident keys cost %d hot, %d cold and %d replica ops; want 100, 0, 0", ops(h), ops(c), ops(r))
		}
	})
	t.Run("cold-resident", func(t *testing.T) {
		read(coldKeys, func(i int) string { return coldKeys[i] })
		h, c, r := settle()
		if !once(h, coldKeys...) || !once(c, coldKeys...) {
			t.Errorf("cold-resident keys asked of the hot level %v and of the cold level %v; want each key once of each", h, c)
		}
		for k := range r {
			if !slices.Contains(coldKeys, k) {
				t.Errorf("a cold replica was asked for %s, which no warmer level missed", k)
			}
		}
	})
	t.Run("warm-copy-wins", func(t *testing.T) {
		read([]string{"dup"}, func(int) string { return "warm" })
		if h, c, r := settle(); !once(h, "dup") || len(c) != 0 || len(r) != 0 {
			t.Errorf("a key resident on both levels cost %v hot, %v cold, %v replica ops; want the hot read only", h, c, r)
		}
	})
	t.Run("absent", func(t *testing.T) {
		misses := tb.Stats().Misses
		_, errs := tb.GetBatch([]string{"absent"})
		if !errors.Is(errs[0], ErrNotFound) {
			t.Errorf("absent key: %v, want ErrNotFound", errs[0])
		}
		if h, c, _ := settle(); !once(h, "absent") || !once(c, "absent") {
			t.Errorf("absent key asked of the hot level %v and of the cold level %v; want once of each", h, c)
		}
		if got := tb.Stats().Misses - misses; got != 1 {
			t.Errorf("absent key booked %d misses, want 1", got)
		}
	})
	t.Run("warm-error-ends-the-key", func(t *testing.T) {
		_, errs := tb.GetBatch([]string{"broken", "h000"})
		_, gerr := tb.Get("broken")
		if !errors.Is(errs[0], down) || !errors.Is(gerr, down) || errs[1] != nil {
			t.Errorf("hot level failing broken: batch %v, Get %v; want its error from both", errs, gerr)
		}
		if _, c, r := settle(); len(c) != 0 || len(r) != 0 {
			t.Errorf("a key the hot level failed reached the cold level: %v, replicas %v", c, r)
		}
	})
}

// TestTieredDeclaresBatchOnlyOverABatchingLevel: a tiered store declares a
// batch read when one of its levels reads batches natively (over a
// Replicated one, its per-level plan) and not over plain levels, whose batch
// would be sequential Gets on one goroutine. The conformance suite's
// BatchMatchesGet holds both to per-key Get (tiered, replicated-under-tiered).
func TestTieredDeclaresBatchOnlyOverABatchingLevel(t *testing.T) {
	rep, err := NewReplicated(ReplicatedOptions{}, Replica{Backend: NewMem(), Domain: "a"}, Replica{Backend: NewMem(), Domain: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, tc := range []struct {
		cold  Backend
		batch bool
	}{{NewMem(), false}, {rep, true}} {
		tb, err := NewTiered(Level{Name: "hot", Backend: NewMem()}, Level{Name: "cold", Backend: tc.cold})
		if err != nil {
			t.Fatal(err)
		}
		if got := Caps(tb).Batch; (got != nil) != tc.batch || (got != nil && got != BatchReader(tb)) {
			t.Errorf("tiered over (mem, %s) declares batch %v, want %v", tc.cold.Name(), got != nil, tc.batch)
		}
	}
}
