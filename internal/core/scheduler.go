package core

import "time"

// Background migration scheduler: lifecycle migration used to run inline
// at the tail of every save and GC, billing the whole tiered shuffle to
// the trainer's stall window. It now runs on a per-manager goroutine
// that is kicked after successful saves, paces itself (at most one pass
// per migratePace), and yields to foreground traffic by waiting for the
// manager to go idle before touching the store. Close stops the
// scheduler and runs one final synchronous pass, so a closed store is
// always fully settled — the invariant every lifecycle test observes.

// Scheduler pacing knobs. Package variables, not constants, so tests
// can compress the cadence; production code never mutates them.
var (
	// migrateIdleWindow is how long the manager must have been free of
	// foreground save activity before a migration pass may start.
	migrateIdleWindow = 20 * time.Millisecond
	// migratePace is the minimum spacing between two migration passes.
	migratePace = 200 * time.Millisecond
)

// startMigrator launches the background scheduler. Called from
// newManager when a lifecycle policy is enabled (tiered backend already
// validated).
func (m *Manager) startMigrator() {
	m.migrateKick = make(chan struct{}, 1)
	m.migrateStop = make(chan struct{})
	m.migrateDone.Add(1)
	go m.runMigrator()
}

// stopMigrator shuts the scheduler down and waits for any in-flight
// pass to finish. No-op when no scheduler runs.
func (m *Manager) stopMigrator() {
	if m.migrateStop == nil {
		return
	}
	close(m.migrateStop)
	m.migrateDone.Wait()
	m.migrateStop = nil
}

// kickMigrate nudges the scheduler after a successful save or GC.
// Non-blocking: the buffered-1 channel coalesces a burst of saves into
// one pending pass.
func (m *Manager) kickMigrate() {
	if m.migrateKick == nil {
		return
	}
	select {
	case m.migrateKick <- struct{}{}:
	default:
	}
}

// markActivity stamps the manager's foreground-activity clock with t, a
// stamp the save's ledger took; the scheduler reads it to yield to save
// traffic.
func (m *Manager) markActivity(t time.Time) {
	m.activityNs.Store(t.UnixNano())
}

// idleFor reports how long the manager has been free of foreground
// activity.
func (m *Manager) idleFor() time.Duration {
	last := m.activityNs.Load()
	if last == 0 {
		return migrateIdleWindow
	}
	return time.Since(time.Unix(0, last))
}

// runMigrator is the scheduler loop: wait for a kick, pace, wait for an
// idle window, run one migration pass. Passes are best-effort exactly
// like the inline calls they replace — placement is an optimization and
// must never surface an error into the save path.
func (m *Manager) runMigrator() {
	defer m.migrateDone.Done()
	var lastPass time.Time
	for {
		select {
		case <-m.migrateStop:
			return
		case <-m.migrateKick:
		}
		if wait := migratePace - time.Since(lastPass); wait > 0 {
			select {
			case <-m.migrateStop:
				return
			case <-time.After(wait):
			}
		}
		// Yield to foreground traffic: a save burst in progress keeps
		// pushing the idle horizon out, and the pass waits its turn.
		// Under sustained traffic the scheduler may never run — Close's
		// final synchronous pass is the backstop.
		for {
			idle := m.idleFor()
			if idle >= migrateIdleWindow {
				break
			}
			select {
			case <-m.migrateStop:
				return
			case <-time.After(migrateIdleWindow - idle):
			}
		}
		m.Migrate()
		lastPass = time.Now()
	}
}
