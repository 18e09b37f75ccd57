package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// TestManagerRandomizedCrashRecovery is a model-checking style stress test:
// a random interleaving of saves, "crashes" (manager discarded, a new one
// opened on the same directory), retention GC and occasional corruption of
// the newest file. The model tracks every state ever saved; after every
// crash, recovery must return exactly one of them, never newer than the
// last save, and — when the newest file was not corrupted — exactly the
// last save.
func TestManagerRandomizedCrashRecovery(t *testing.T) {
	for _, strategy := range []Strategy{StrategyFull, StrategyDelta} {
		r := rng.New(77 + uint64(strategy))
		dir := t.TempDir()
		opts := Options{Dir: dir, Strategy: strategy, AnchorEvery: 4, Retain: 3}

		m, err := NewManager(opts)
		if err != nil {
			t.Fatal(err)
		}
		saved := make(map[uint64]*TrainingState) // step -> state
		cur := sampleState()
		cur.Step = 0
		var lastSavedStep uint64
		haveSaves := false
		corruptedNewest := false
		chainBroken := false // an external deletion may orphan newer deltas
		var newestPath string

		for op := 0; op < 120; op++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // save a mutated state
				cur = cur.Clone()
				cur.Step++
				cur.Params[r.Intn(len(cur.Params))] += r.NormFloat64() * 0.01
				cur.LossHistory = append(cur.LossHistory, r.Float64())
				res, err := m.Save(cur)
				if err != nil {
					t.Fatal(err)
				}
				saved[cur.Step] = cur
				lastSavedStep = cur.Step
				haveSaves = true
				corruptedNewest = false
				if res.Kind == KindFull {
					chainBroken = false // a fresh anchor is self-contained
				}
				newestPath = res.Path
			case 6, 7: // crash + recover
				m.Close()
				if haveSaves {
					got, _, err := loadDir(t, dir, nil)
					if err != nil {
						t.Fatalf("op %d: recovery failed: %v", op, err)
					}
					want, ok := saved[got.Step]
					if !ok || !got.Equal(want) {
						t.Fatalf("op %d: recovered state at step %d does not match any save", op, got.Step)
					}
					if got.Step > lastSavedStep {
						t.Fatalf("op %d: recovered step %d beyond last save %d", op, got.Step, lastSavedStep)
					}
					if !corruptedNewest && !chainBroken && got.Step != lastSavedStep {
						t.Fatalf("op %d: intact newest save (step %d) not recovered; got %d",
							op, lastSavedStep, got.Step)
					}
				}
				m, err = NewManager(opts)
				if err != nil {
					t.Fatal(err)
				}
			case 8: // corrupt the newest snapshot file
				if newestPath != "" && !corruptedNewest {
					raw, err := os.ReadFile(newestPath)
					if err == nil && len(raw) > 0 {
						raw[r.Intn(len(raw))] ^= 0xff
						os.WriteFile(newestPath, raw, 0o644)
						corruptedNewest = true
					}
				}
			case 9: // drop a random non-newest snapshot (external cleanup)
				entries, _ := os.ReadDir(dir)
				if len(entries) > 2 {
					victim := entries[r.Intn(len(entries))]
					p := filepath.Join(dir, victim.Name())
					if p != newestPath {
						if os.Remove(p) == nil {
							// Deleting a chain member may orphan every delta
							// after it; recovery legitimately falls back.
							chainBroken = true
						}
					}
				}
			}
		}
		m.Close()
		if haveSaves {
			got, _, err := loadDir(t, dir, nil)
			if err != nil {
				t.Fatalf("final recovery failed: %v", err)
			}
			want, ok := saved[got.Step]
			if !ok || !got.Equal(want) {
				t.Fatalf("final recovered state does not match any save")
			}
		}
	}
}
