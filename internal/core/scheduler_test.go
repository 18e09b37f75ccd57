package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestBackgroundMigrationRunsBeforeClose proves migration is genuinely
// backgrounded: after saves go quiet, the scheduler demotes cold chains
// on its own, with no Close (or any other foreground call) involved. The
// manager runs on a fake clock: the pass waits out its idle window until
// the test advances the clock past it, and the cold level's first write —
// nothing but a migration writes there — says the pass has begun.
func TestBackgroundMigrationRunsBeforeClose(t *testing.T) {
	levels := memTiers("hot", "cold")
	copied := make(chan struct{})
	var once sync.Once
	levels[1].Backend = storage.Observe(levels[1].Backend, func(op storage.Op) (int64, error) {
		if op.After && op.Err == nil && (op.Kind == storage.OpPut || op.Kind == storage.OpIngest) {
			once.Do(func() { close(copied) })
		}
		return 0, nil
	})
	tb, err := storage.NewTiered(levels...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{
		Backend:     tb,
		Lifecycle:   LifecyclePolicy{KeepHotChains: 1},
		Strategy:    StrategyDelta,
		AnchorEvery: 2,
		ChunkBytes:  MinChunkBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock(0)
	m.clock = clk
	saveAll(t, m, seqStates(8)) // 4 chains; policy keeps 1 hot
	select {
	case <-copied:
		t.Fatal("a migration pass began inside the idle window")
	default:
	}
	clk.awaitTimer() // the scheduler waits out the idle window
	clk.Advance(migrateIdleWindow)
	select {
	case <-copied:
	case <-time.After(10 * time.Second):
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
	if m.Stats().Migrated == 0 {
		t.Fatal("no snapshot migrated")
	}
}

// TestSchedulerStopsCleanly: Close on an idle manager with a pending kick
// must not hang or double-run; repeated Close stays safe.
func TestSchedulerStopsCleanly(t *testing.T) {
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
