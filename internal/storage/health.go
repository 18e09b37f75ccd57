package storage

import (
	"sync"
	"time"
)

// Replica health tracking for the Replicated backend. Each replica gets a
// small state machine: consecutive failures past a threshold mark it down
// (writes stop fanning out to its failure domain, reads try it last);
// after a probe interval the next operation is allowed one attempt, and a
// success marks it up again with a pending anti-entropy repair so it can
// catch up on everything it missed while dark.

// defaultFailureThreshold is the consecutive-failure count that marks a
// replica down; defaultProbeInterval is how long a down replica rests
// before operations retry it.
const (
	defaultFailureThreshold = 3
	defaultProbeInterval    = 2 * time.Second
)

// ReplicaStatus is one replica's health snapshot, as reported by
// Replicated.Health and the `qckpt replicas` status table.
type ReplicaStatus struct {
	// Index is the replica's position in the fan-out order.
	Index int
	// Name is the underlying backend's Name.
	Name string
	// Domain is the failure-domain label the replica was registered with.
	Domain string
	// Up reports whether the replica is currently taking traffic.
	Up bool
	// Failures counts every failed operation since open.
	Failures int64
	// Consecutive counts the current unbroken failure streak.
	Consecutive int
	// LastError is the most recent failure's message ("" if none).
	LastError string
	// NeedsRepair is set when the replica was down (or missed a write) and
	// has not been through anti-entropy repair since.
	NeedsRepair bool
}

// replicaHealth is the mutable health state behind one replica.
type replicaHealth struct {
	mu          sync.Mutex
	down        bool
	failures    int64
	consecutive int
	lastErr     string
	needsRepair bool
	lastAttempt time.Time

	threshold int
	probe     time.Duration
}

func newReplicaHealth(threshold int, probe time.Duration) *replicaHealth {
	if threshold <= 0 {
		threshold = defaultFailureThreshold
	}
	if probe <= 0 {
		probe = defaultProbeInterval
	}
	return &replicaHealth{threshold: threshold, probe: probe}
}

// usable reports whether the replica should be offered traffic: up
// replicas always, down replicas only as a probe once per probe interval
// (the attempt is recorded so concurrent callers don't stampede it).
func (h *replicaHealth) usable(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.down {
		return true
	}
	if now.Sub(h.lastAttempt) >= h.probe {
		h.lastAttempt = now
		return true
	}
	return false
}

// up reports whether the replica is currently marked healthy.
func (h *replicaHealth) up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down
}

// admit returns the generation an operation starts under, for markSuccess.
func (h *replicaHealth) admit() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failures
}

// markSuccess resets the failure streak — unless a failure was recorded
// after the operation was admitted at gen: a straggler that set out before
// an outage proves nothing about the replica now. A recovering replica
// comes back up with needsRepair still set — it answered one request, but
// everything it missed while dark is only healed by anti-entropy repair.
func (h *replicaHealth) markSuccess(gen int64) {
	h.mu.Lock()
	if h.failures == gen {
		h.consecutive = 0
		h.lastErr = ""
		h.down = false
	}
	h.mu.Unlock()
}

// markFailure records one failed operation, which starts a new health
// generation; crossing the threshold takes the replica's domain out of the
// write fan-out and flags it for repair.
func (h *replicaHealth) markFailure(err error) {
	h.mu.Lock()
	h.failures++
	h.consecutive++
	if err != nil {
		h.lastErr = err.Error()
	}
	h.lastAttempt = time.Now()
	if h.consecutive >= h.threshold {
		h.down = true
		h.needsRepair = true
	}
	h.mu.Unlock()
}

// markDirty flags the replica for repair without touching the up/down
// state — used when a write skipped it or a read-repair found it stale.
func (h *replicaHealth) markDirty() {
	h.mu.Lock()
	h.needsRepair = true
	h.mu.Unlock()
}

// clearRepair is called after a successful anti-entropy pass.
func (h *replicaHealth) clearRepair() {
	h.mu.Lock()
	h.needsRepair = false
	h.mu.Unlock()
}

func (h *replicaHealth) snapshot(index int, name, domain string) ReplicaStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return ReplicaStatus{
		Index:       index,
		Name:        name,
		Domain:      domain,
		Up:          !h.down,
		Failures:    h.failures,
		Consecutive: h.consecutive,
		LastError:   h.lastErr,
		NeedsRepair: h.needsRepair,
	}
}
