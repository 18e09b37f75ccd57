package core

import (
	"testing"
	"time"
)

// compressScheduler shrinks the migrator's pacing knobs so tests observe
// background passes in milliseconds, restoring them on cleanup.
func compressScheduler(t *testing.T) {
	t.Helper()
	oldIdle, oldPace := migrateIdleWindow, migratePace
	migrateIdleWindow, migratePace = time.Millisecond, time.Millisecond
	t.Cleanup(func() { migrateIdleWindow, migratePace = oldIdle, oldPace })
}

// TestBackgroundMigrationRunsBeforeClose proves migration is genuinely
// backgrounded: after saves go quiet, the scheduler demotes cold chains
// on its own, with no Close (or any other foreground call) involved.
func TestBackgroundMigrationRunsBeforeClose(t *testing.T) {
	compressScheduler(t)
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
	saveAll(t, m, seqStates(8)) // 4 chains; policy keeps 1 hot
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Migrated == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if st := m.Stats(); st.Migrated == 0 {
		t.Fatal("background migrator never ran a pass before Close")
	}
	// Reads work mid-migration and after: the chain restores bitwise.
	st, _, err := LoadLatestBackendOptions(m.Backend(), nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 7 {
		t.Fatalf("restored step %d, want 7", st.Step)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerStopsCleanly: Close on an idle manager with a pending kick
// must not hang or double-run; repeated Close stays safe.
func TestSchedulerStopsCleanly(t *testing.T) {
	compressScheduler(t)
	m, err := NewManager(Options{
		Backend:   memTiered(t, "hot", "cold"),
		Lifecycle: LifecyclePolicy{KeepHotChains: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, m, seqStates(2))
	m.kickMigrate()
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung waiting for the migrator")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
