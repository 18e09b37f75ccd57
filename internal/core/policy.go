package core

import "time"

// Policy decides when the trainer checkpoints. Triggers compose with OR:
// any satisfied condition fires a checkpoint. The zero Policy never fires.
type Policy struct {
	// EverySteps checkpoints when this many optimizer steps completed since
	// the last checkpoint (0 disables).
	EverySteps int
	// EveryUnits checkpoints mid-step when this many gradient work units
	// completed since the last checkpoint (0 disables). This is the
	// sub-step trigger.
	EveryUnits int
	// EveryWall checkpoints when this much wall-clock (virtual QPU clock in
	// simulation) elapsed since the last checkpoint (0 disables).
	EveryWall time.Duration
}

// Tracker applies a Policy incrementally. The trainer reports progress
// events; the tracker answers "checkpoint now?".
type Tracker struct {
	policy         Policy
	stepsSince     int
	unitsSince     int
	lastCheckpoint time.Duration // position on the caller's clock
	initialized    bool
}

// NewTracker returns a tracker for the policy.
func NewTracker(p Policy) *Tracker {
	return &Tracker{policy: p}
}

// NoteStep records a completed optimizer step and reports whether to
// checkpoint.
func (t *Tracker) NoteStep(now time.Duration) bool {
	t.stepsSince++
	return t.should(now, true)
}

// NoteUnit records a completed gradient work unit and reports whether to
// checkpoint (sub-step granularity).
func (t *Tracker) NoteUnit(now time.Duration) bool {
	t.unitsSince++
	return t.should(now, false)
}

// should evaluates the triggers. Step-based triggers only fire on step
// boundaries; unit and wall triggers fire anywhere.
func (t *Tracker) should(now time.Duration, atStepBoundary bool) bool {
	if !t.initialized {
		t.lastCheckpoint = now
		t.initialized = true
	}
	if t.policy.EverySteps > 0 && atStepBoundary && t.stepsSince >= t.policy.EverySteps {
		return true
	}
	if t.policy.EveryUnits > 0 && t.unitsSince >= t.policy.EveryUnits {
		return true
	}
	if t.policy.EveryWall > 0 && now-t.lastCheckpoint >= t.policy.EveryWall {
		return true
	}
	return false
}

// NoteCheckpoint resets the counters after a checkpoint was taken.
func (t *Tracker) NoteCheckpoint(now time.Duration) {
	t.stepsSince = 0
	t.unitsSince = 0
	t.lastCheckpoint = now
	t.initialized = true
}

// Dirty reports whether any progress has accumulated since the last
// checkpoint. Hint-driven triggers (imminent session expiry) only fire when
// there is something new to save.
func (t *Tracker) Dirty() bool {
	return t.stepsSince > 0 || t.unitsSince > 0
}
