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

// Scheduler pacing, on the manager's clock: a test advances a fake clock
// past these instead of shrinking them.
const (
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

// runMigrator is the scheduler loop: on a kick, wait until migratePace has
// passed since the last pass and migrateIdleWindow since the last
// foreground activity, then run one migration pass. Passes are best-effort
// exactly like the inline calls they replace — placement is an
// optimization and must never surface an error into the save path.
func (m *Manager) runMigrator() {
	defer m.migrateDone.Done()
	var lastPass time.Time
	for {
		select {
		case <-m.migrateStop:
			return
		case <-m.migrateKick:
		}
		// Yield to foreground traffic: a save burst in progress keeps
		// pushing the idle horizon out, and the pass waits its turn.
		// Under sustained traffic the scheduler may never run — Close's
		// final synchronous pass is the backstop.
		for {
			now := m.clock.Now()
			active := time.Unix(0, m.activityNs.Load())
			wait := max(migratePace-now.Sub(lastPass), migrateIdleWindow-now.Sub(active))
			if wait <= 0 {
				break
			}
			select {
			case <-m.migrateStop:
				return
			case <-m.clock.After(wait):
			}
		}
		m.Migrate()
		lastPass = m.clock.Now()
	}
}
