package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Level is one named rung of a Tiered backend: any Backend (typically
// Tier-wrapped with a Device model) plus the name placement policies and
// command-line flags refer to it by. Levels are ordered hot to cold.
type Level struct {
	Name    string
	Backend Backend
}

// Tiered is a composite Backend over an ordered list of levels. Writes
// land on the level the placement policy maps their class to — the hot
// (first) level by default and for every unclassified write; reads fall
// through the hierarchy until a level answers, so an object stays
// readable wherever it lives. A move is CopyTo (copy, read back, verify)
// followed by DeleteOutside, so a lifecycle policy migrates cold history
// down without ever making it unreadable. List and
// Delete span every level, so retention GC and chunk collection operate on
// the union of all residencies.
type Tiered struct {
	levels []Level

	mu    sync.Mutex
	stats TieredStats

	// classTarget maps each WriteClass to the level index its writes land
	// on. All zero (hot) until SetPlacement installs a policy, so plain
	// Put and unpoliced stores behave exactly as before.
	classTarget [numWriteClasses]int
	// classes remembers the class each live key was written as, for
	// occupancy-by-class accounting. Keys written before the process
	// started (or through plain Put) report ClassDefault. Entries are
	// dropped on Delete, so the map tracks live objects, not history.
	classes map[string]WriteClass
}

// TieredStats aggregates read-through activity.
type TieredStats struct {
	// Hits counts reads (Get/GetRange/Stat) answered per level.
	Hits []int64
	// Misses counts reads no level could answer.
	Misses int64
}

// NewTiered builds a composite backend over levels, ordered hot to cold.
// At least one level is required and level names must be unique.
func NewTiered(levels ...Level) (*Tiered, error) {
	if len(levels) == 0 {
		return nil, errors.New("storage: tiered backend needs at least one level")
	}
	seen := make(map[string]bool, len(levels))
	for _, lv := range levels {
		if lv.Name == "" {
			return nil, errors.New("storage: tiered level without a name")
		}
		if lv.Backend == nil {
			return nil, fmt.Errorf("storage: tiered level %q without a backend", lv.Name)
		}
		if seen[lv.Name] {
			return nil, fmt.Errorf("storage: duplicate tiered level %q", lv.Name)
		}
		seen[lv.Name] = true
	}
	return &Tiered{levels: append([]Level(nil), levels...), stats: TieredStats{Hits: make([]int64, len(levels))}}, nil
}

// Len returns the number of levels.
func (t *Tiered) Len() int { return len(t.levels) }

// Level returns level i (0 = hottest).
func (t *Tiered) Level(i int) Level { return t.levels[i] }

// levelIndex resolves a level name to its index.
func (t *Tiered) levelIndex(name string) (int, error) {
	for i, lv := range t.levels {
		if lv.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("storage: unknown tier level %q", name)
}

// Stats returns a copy of the accumulated counters.
func (t *Tiered) Stats() TieredStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Hits = append([]int64(nil), t.stats.Hits...)
	return st
}

func (t *Tiered) hit(level int) {
	t.mu.Lock()
	t.stats.Hits[level]++
	t.mu.Unlock()
}

func (t *Tiered) miss() {
	t.mu.Lock()
	t.stats.Misses++
	t.mu.Unlock()
}

// Name implements Backend.
func (t *Tiered) Name() string {
	names := make([]string, len(t.levels))
	for i, lv := range t.levels {
		names[i] = lv.Name
	}
	return "tiered(" + strings.Join(names, "+") + ")"
}

// Capabilities implements Backend: the composite is only as strong as its
// weakest level for atomicity and persistence, and modeled if any level is.
func (t *Tiered) Capabilities() Capabilities {
	c := Capabilities{Atomic: true, Persistent: true}
	for _, lv := range t.levels {
		lc := lv.Backend.Capabilities()
		c.Atomic = c.Atomic && lc.Atomic
		c.Persistent = c.Persistent && lc.Persistent
		c.Modeled = c.Modeled || lc.Modeled
	}
	return c
}

// Caps implements CapsReporter. Read-through ranged reads, class-routed
// writes, and occupancy accounting are native to the composite; per-level
// batch planning is declared, as ForwardCaps would, only when a level reads
// batches natively: over plain levels it is sequential Gets on one
// goroutine. Addressed ingest and orphan collection are not forwarded — the
// chunk-store protocol runs above a tiered store, never inside one level.
func (t *Tiered) Caps() CapSet {
	c := CapSet{Range: t, ClassWrite: t, Occupancy: t}
	for _, lv := range t.levels {
		if Caps(lv.Backend).Batch != nil {
			c.Batch = t
			break
		}
	}
	return c
}

// SetPlacement installs a placement policy, resolving each class's level
// name against this store's levels. A zero policy restores the default
// write-to-hot rule. Safe to call on a live store; only subsequent writes
// are affected (installing a policy never moves resident objects — that
// is the migration scheduler's job).
func (t *Tiered) SetPlacement(pol PlacementPolicy) error {
	var targets [numWriteClasses]int
	for c := WriteClass(0); c < numWriteClasses; c++ {
		name := pol.levelFor(c)
		if name == "" {
			continue
		}
		idx, err := t.levelIndex(name)
		if err != nil {
			return fmt.Errorf("storage: placement for class %s: %w", c, err)
		}
		targets[c] = idx
	}
	t.mu.Lock()
	t.classTarget = targets
	t.mu.Unlock()
	return nil
}

// targetFor returns the level index class writes land on.
func (t *Tiered) targetFor(class WriteClass) int {
	if class < 0 || class >= numWriteClasses {
		class = ClassDefault
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.classTarget[class]
}

// recordClass notes the class key was written as (for occupancy stats).
// ClassDefault entries are dropped rather than stored: they are the
// lookup fallback anyway, and most stores never tag at all.
func (t *Tiered) recordClass(key string, class WriteClass) {
	t.mu.Lock()
	if class == ClassDefault {
		delete(t.classes, key)
	} else {
		if t.classes == nil {
			t.classes = make(map[string]WriteClass)
		}
		t.classes[key] = class
	}
	t.mu.Unlock()
}

// classOf returns the recorded class of key (ClassDefault if unknown).
func (t *Tiered) classOf(key string) WriteClass {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.classes[key]
}

// Put implements Backend: an unclassified write, placed by the default
// rule (the hot level unless a policy says otherwise).
func (t *Tiered) Put(key string, data []byte) error {
	return t.PutClass(key, data, ClassDefault)
}

// PutClass implements ClassWriter: the write lands on the level the
// placement policy maps its class to — the policy-driven replacement for
// the old unconditional write-to-hot rule.
func (t *Tiered) PutClass(key string, data []byte, class WriteClass) error {
	target := t.targetFor(class)
	if err := t.levels[target].Backend.Put(key, data); err != nil {
		return err
	}
	// An overwrite whose class routes to a different level than the
	// resident copy must not leave the old bytes behind: hot-first
	// read-through would keep serving them over the new write (the
	// chunk store's corruption repair rewrites a corrupt hot chunk
	// through exactly this path). Dropping every other copy makes the
	// write-then-delete ordering the same as a move's copy-verify-delete:
	// a crash in between leaves at worst a duplicate, never data loss.
	if len(t.levels) > 1 {
		if _, err := t.DeleteOutside(key, target); err != nil {
			return fmt.Errorf("storage: clear superseded copies of %s: %w", key, err)
		}
	}
	t.recordClass(key, class)
	return nil
}

// readThrough is the hot→cold rule for one key (GetBatch applies it per
// level to a batch): the first level whose read succeeds answers,
// ErrNotFound falls through and any other error ends the read. It reports
// the answering level and, when count is set, books the hit or the miss.
func readThrough[T any](t *Tiered, key string, count bool, read func(Backend) (T, error)) (T, int, error) {
	var zero T
	if err := ValidateKey(key); err != nil {
		return zero, 0, err
	}
	for i, lv := range t.levels {
		v, err := read(lv.Backend)
		if err == nil {
			if count {
				t.hit(i)
			}
			return v, i, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return zero, 0, err
		}
	}
	if count {
		t.miss()
	}
	return zero, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
}

// Get implements Backend: read-through from hot to cold, returning the
// warmest copy.
func (t *Tiered) Get(key string) ([]byte, error) {
	data, _, err := readThrough(t, key, true, func(b Backend) ([]byte, error) { return b.Get(key) })
	return data, err
}

// GetRange implements RangeReader with the same read-through order.
func (t *Tiered) GetRange(key string, off, n int64) ([]byte, error) {
	if err := validRange(off, n); err != nil {
		return nil, err
	}
	data, _, err := readThrough(t, key, true, func(b Backend) ([]byte, error) { return GetRange(b, key, off, n) })
	return data, err
}

// GetBatch implements BatchReader with Get's read-through rule, one batch
// per level: level i is asked (storage.GetBatch) only for the keys every
// warmer level answered with ErrNotFound, and any other error ends the key.
// Each key's warm probe precedes its cold one, as a move's copy precedes its
// delete, so no move slips an object past both. Hits and misses count as in
// Get; keys no level holds report the coldest level's ErrNotFound.
func (t *Tiered) GetBatch(keys []string) ([][]byte, []error) {
	out, errs := make([][]byte, len(keys)), make([]error, len(keys))
	var pending []int
	for i, k := range keys {
		if errs[i] = ValidateKey(k); errs[i] == nil {
			pending = append(pending, i)
		}
	}
	for lv := 0; lv < len(t.levels) && len(pending) > 0; lv++ {
		ask := make([]string, len(pending))
		for j, i := range pending {
			ask[j] = keys[i]
		}
		data, lerrs := GetBatch(t.levels[lv].Backend, ask)
		next := pending[:0]
		for j, i := range pending {
			if out[i], errs[i] = data[j], lerrs[j]; errs[i] == nil {
				t.hit(lv)
			} else if errors.Is(errs[i], ErrNotFound) {
				next = append(next, i)
			}
		}
		pending = next
	}
	for range pending {
		t.miss()
	}
	return out, errs
}

// List implements Backend: the sorted union of every level's keys.
func (t *Tiered) List(prefix string) ([]string, error) {
	seen := make(map[string]bool)
	var keys []string
	for _, lv := range t.levels {
		ks, err := lv.Backend.List(prefix)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend: the object is removed from every level that
// holds it; ErrNotFound only when no level did.
func (t *Tiered) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	found := false
	for _, lv := range t.levels {
		err := lv.Backend.Delete(key)
		if err == nil {
			found = true
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	t.mu.Lock()
	delete(t.classes, key)
	t.mu.Unlock()
	return nil
}

// Stat implements Backend: metadata of the warmest copy.
func (t *Tiered) Stat(key string) (ObjectInfo, error) {
	info, _, err := readThrough(t, key, true, func(b Backend) (ObjectInfo, error) { return b.Stat(key) })
	return info, err
}

// Residency returns the index of the warmest level holding key, or
// ErrNotFound.
func (t *Tiered) Residency(key string) (int, error) {
	_, level, err := readThrough(t, key, false, func(b Backend) (ObjectInfo, error) { return b.Stat(key) })
	return level, err
}

// CopyTo copies key onto level target (verifying the copy by reading it
// back) without deleting any other copy — the first half of a
// copy-verify-delete move. It reports the bytes copied; a no-op (already
// resident at target) copies zero.
func (t *Tiered) CopyTo(key string, target int) (int64, error) {
	if target < 0 || target >= len(t.levels) {
		return 0, fmt.Errorf("storage: tier level %d out of range", target)
	}
	dst := t.levels[target].Backend
	if _, err := dst.Stat(key); err == nil {
		return 0, nil
	}
	data, err := t.Get(key)
	if err != nil {
		return 0, err
	}
	if err := dst.Put(key, data); err != nil {
		return 0, err
	}
	back, err := dst.Get(key)
	if err != nil {
		return 0, fmt.Errorf("storage: verify copy of %s: %w", key, err)
	}
	if !bytes.Equal(back, data) {
		return 0, fmt.Errorf("storage: copy of %s to level %s corrupt", key, t.levels[target].Name)
	}
	return int64(len(data)), nil
}

// DeleteOutside removes every copy of key except the one at level keep —
// the second half of a copy-verify-delete move. Missing copies are not
// errors; it reports how many copies were removed.
func (t *Tiered) DeleteOutside(key string, keep int) (int, error) {
	removed := 0
	for i, lv := range t.levels {
		if i == keep {
			continue
		}
		err := lv.Backend.Delete(key)
		if err == nil {
			removed++
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return removed, err
		}
	}
	return removed, nil
}

// ClassOccupancy is one write class's resident footprint on a level.
type ClassOccupancy struct {
	Class   string
	Objects int
	Bytes   int64
}

// LevelOccupancy is one level's resident footprint. ByClass breaks the
// totals down by the class each object was written as (classes recorded
// since this Tiered was opened; older objects count as "default").
type LevelOccupancy struct {
	Name    string
	Objects int
	Bytes   int64
	ByClass []ClassOccupancy
}

// Occupancy reports each level's resident object count and bytes, broken
// down by write class — the "did the delta tail actually land warm?"
// evidence the QoS harness (Table 10) reports.
func (t *Tiered) Occupancy() ([]LevelOccupancy, error) {
	occ := make([]LevelOccupancy, len(t.levels))
	for i, lv := range t.levels {
		occ[i].Name = lv.Name
		keys, err := lv.Backend.List("")
		if err != nil {
			return nil, err
		}
		occ[i].Objects = len(keys)
		var byClass [numWriteClasses]ClassOccupancy
		for _, k := range keys {
			info, err := lv.Backend.Stat(k)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue // racing delete
				}
				return nil, err
			}
			occ[i].Bytes += info.Size
			c := t.classOf(k)
			byClass[c].Objects++
			byClass[c].Bytes += info.Size
		}
		for c := WriteClass(0); c < numWriteClasses; c++ {
			if byClass[c].Objects == 0 {
				continue
			}
			byClass[c].Class = c.String()
			occ[i].ByClass = append(occ[i].ByClass, byClass[c])
		}
	}
	return occ, nil
}

// NewTieredDir opens the standard on-disk tiered layout rooted at dir:
// the hot level is dir itself (so untiered tools keep working on the hot
// set), and each colder level lives under dir/.level-<name> — dot-prefixed
// so hot-level listings never see it. Each name must resolve with
// DeviceByName and the level is wrapped in its device cost model.
func NewTieredDir(dir string, names []string) (*Tiered, error) {
	if len(names) == 0 {
		return nil, errors.New("storage: tiered layout needs at least one level name")
	}
	levels := make([]Level, 0, len(names))
	for i, name := range names {
		dev, err := DeviceByName(name)
		if err != nil {
			return nil, err
		}
		root := dir
		if i > 0 {
			root = filepath.Join(dir, ".level-"+name)
		}
		base, err := NewLocal(root)
		if err != nil {
			return nil, err
		}
		levels = append(levels, Level{Name: name, Backend: NewTier(base, dev)})
	}
	return NewTiered(levels...)
}
