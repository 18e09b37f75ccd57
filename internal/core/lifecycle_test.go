package core

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// memTiers builds an n-level all-memory tiered stack for lifecycle tests.
func memTiers(names ...string) []storage.Level {
	levels := make([]storage.Level, len(names))
	for i, name := range names {
		levels[i] = storage.Level{Name: name, Backend: storage.NewMem()}
	}
	return levels
}

// memTiered is the composite backend over memTiers(names...).
func memTiered(t *testing.T, names ...string) *storage.Tiered {
	t.Helper()
	tb, err := storage.NewTiered(memTiers(names...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// tieredOf unwraps the manager's composite backend.
func tieredOf(t *testing.T, m *Manager) *storage.Tiered {
	t.Helper()
	tb, ok := m.Backend().(*storage.Tiered)
	if !ok {
		t.Fatalf("manager backend is %T, want *storage.Tiered", m.Backend())
	}
	return tb
}

// saveAll drives states through m, failing the test on any error.
func saveAll(t *testing.T, m *Manager, states []*TrainingState) {
	t.Helper()
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLifecycleDemotesColdChains(t *testing.T) {
	m, err := NewManager(Options{
		Backend:     memTiered(t, "hot", "cold"),
		Lifecycle:   LifecyclePolicy{KeepHotChains: 1},
		Strategy:    StrategyDelta,
		AnchorEvery: 2,
		ChunkBytes:  MinChunkBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(8) // 4 anchor chains; policy keeps 1 hot
	saveAll(t, m, states)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	tb := tieredOf(t, m)

	hotKeys, err := tb.Level(0).Backend.List(snapshotKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	coldKeys, err := tb.Level(1).Backend.List(snapshotKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(hotKeys) != 2 {
		t.Errorf("hot level holds %d manifests %v, want the newest chain (2)", len(hotKeys), hotKeys)
	}
	if len(coldKeys) != 6 {
		t.Errorf("cold level holds %d manifests %v, want the 3 demoted chains (6)", len(coldKeys), coldKeys)
	}
	for _, k := range hotKeys {
		if seq, _, _ := parseSnapshotName(k); seq < 6 {
			t.Errorf("hot level holds old-chain manifest %s", k)
		}
	}
	if st := m.Stats(); st.Migrated == 0 || st.MigratedBytes == 0 {
		t.Errorf("lifecycle stats not accounted: %+v", st)
	}

	// Demoted chunks are exactly those no hot manifest references.
	keep, err := chunkReferences(tb.Level(0).Backend)
	if err != nil {
		t.Fatal(err)
	}
	hotChunks, _ := storage.NewChunkStore(storage.WithPrefix(tb.Level(0).Backend, ChunkPrefix)).List()
	for _, a := range hotChunks {
		if !keep[a] {
			t.Errorf("hot level retains unreferenced chunk %s", a)
		}
	}

	// Everything still recovers bitwise through the composite.
	got, report, err := LoadLatestBackendOptions(tb, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[len(states)-1]) {
		t.Errorf("recovered step %d diverges from last save", got.Step)
	}
	if len(report.Skipped) != 0 {
		t.Errorf("recovery skipped %v", report.Skipped)
	}
	if ok, problems, err := VerifyBackend(tb); err != nil || len(problems) != 0 || ok != 8 {
		t.Errorf("verify after demotion: ok=%d problems=%v err=%v", ok, problems, err)
	}
}

// TestLifecycleCrashBetweenCopyAndDelete is the migration fault-injection
// test: a migration killed between its copy and delete phases must leave
// every snapshot recoverable — from the hot copies that were never
// deleted, from the cold copies alone once the warm side is gone, and
// after the rerun pass that settles the move.
func TestLifecycleCrashBetweenCopyAndDelete(t *testing.T) {
	tb, err := storage.NewTiered(memTiers("hot", "cold")...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{
		Backend:     tb,
		Strategy:    StrategyDelta,
		AnchorEvery: 2,
		ChunkBytes:  MinChunkBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(6)
	saveAll(t, m, states)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected crash")
	lifecycleFaultHook = func() error { return injected }
	defer func() { lifecycleFaultHook = nil }()

	pol := LifecyclePolicy{KeepHotChains: 1}
	if _, err := Migrate(tb, pol); !errors.Is(err, injected) {
		t.Fatalf("Migrate = %v, want injected crash", err)
	}

	// Crash window state: demoted objects were copied cold but the hot
	// copies survive — duplicates, never gaps.
	coldKeys, _ := tb.Level(1).Backend.List(snapshotKeyPrefix)
	if len(coldKeys) != 4 {
		t.Fatalf("cold level holds %v after aborted copy phase, want 4 manifests", coldKeys)
	}
	hotKeys, _ := tb.Level(0).Backend.List(snapshotKeyPrefix)
	if len(hotKeys) != 6 {
		t.Fatalf("hot level lost manifests during aborted migration: %v", hotKeys)
	}
	assertRecoverable := func(when string) {
		t.Helper()
		got, _, err := LoadLatestBackendOptions(tb, nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", when, err)
		}
		if !got.Equal(states[len(states)-1]) {
			t.Fatalf("%s: recovered step %d diverges", when, got.Step)
		}
		if ok, problems, err := VerifyBackend(tb); err != nil || len(problems) != 0 || ok != 6 {
			t.Fatalf("%s: verify ok=%d problems=%v err=%v", when, ok, problems, err)
		}
	}
	assertRecoverable("between copy and delete")

	// Crash window advanced mid-delete: some demoted objects already lost
	// their hot copy and live only cold.
	for _, k := range coldKeys[:2] {
		if _, err := tb.DeleteOutside(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	assertRecoverable("mid delete phase")

	// The rerun pass (no fault) settles the move and nothing is lost.
	lifecycleFaultHook = nil
	rep, err := Migrate(tb, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifests == 0 {
		t.Errorf("rerun migration settled nothing: %+v", rep)
	}
	hotKeys, _ = tb.Level(0).Backend.List(snapshotKeyPrefix)
	if len(hotKeys) != 2 {
		t.Errorf("hot level holds %v after settling, want the newest chain", hotKeys)
	}
	assertRecoverable("after settling rerun")
}

func TestLifecycleOptionValidation(t *testing.T) {
	if _, err := NewManager(Options{Dir: t.TempDir(), Lifecycle: LifecyclePolicy{KeepHotChains: 1}}); err == nil {
		t.Errorf("Lifecycle without a tiered backend accepted")
	}
}

// TestCompactBackendTiered exercises compaction over a tiered backend with
// demoted history: the fresh anchor lands hot, old copies disappear from
// every level, and orphaned chunks are collected across levels.
func TestCompactBackendTiered(t *testing.T) {
	m, err := NewManager(Options{
		Backend:     memTiered(t, "hot", "cold"),
		Lifecycle:   LifecyclePolicy{KeepHotChains: 1},
		Strategy:    StrategyDelta,
		AnchorEvery: 2,
		ChunkBytes:  MinChunkBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(6)
	saveAll(t, m, states)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	tb := tieredOf(t, m)

	newKey, removed, err := CompactBackend(tb, true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 6 {
		t.Errorf("compact removed %d snapshots, want 6", removed)
	}
	for i := 0; i < tb.Len(); i++ {
		keys, _ := tb.Level(i).Backend.List(snapshotKeyPrefix)
		switch i {
		case 0:
			if len(keys) != 1 || keys[0] != newKey {
				t.Errorf("hot level holds %v, want only %s", keys, newKey)
			}
		default:
			if len(keys) != 0 {
				t.Errorf("level %d still holds %v after compact", i, keys)
			}
		}
		chunks, _ := storage.NewChunkStore(storage.WithPrefix(tb.Level(i).Backend, ChunkPrefix)).List()
		if len(chunks) != 0 {
			t.Errorf("level %d retains %d orphan chunks after compact", i, len(chunks))
		}
	}
	got, _, err := LoadLatestBackendOptions(tb, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[len(states)-1]) {
		t.Errorf("compacted state diverges")
	}
}
