package api

import (
	"sync"
	"time"
)

// DefaultLeaseTTL is how long an uploaded chunk outlives its last touch
// before GC may reap it unreferenced. It only needs to cover the window
// between a save's first chunk upload and its manifest commit — seconds —
// with generous slack for stalled clients.
const DefaultLeaseTTL = 5 * time.Minute

// Leases is the time-bounded pin table protecting remote uploads: every
// address a client probes or uploads is touched, and stays pinned against
// orphan collection until TTL after its last touch. It replaces the
// per-save pin/unpin protocol local managers use — the server cannot see
// a remote save's lifetime, so it bounds protection by time instead. A
// client killed mid-upload stops touching, its leases lapse, and the next
// collection reaps the chunks its never-committed manifest would have
// referenced. Leases implements core.PinSource.
type Leases struct {
	ttl time.Duration
	now func() time.Time

	mu     sync.Mutex
	exp    map[string]time.Time
	walkAt time.Time // Lapsed walks the table again from here on
}

// NewLeases returns an empty lease table (ttl ≤ 0 selects
// DefaultLeaseTTL).
func NewLeases(ttl time.Duration) *Leases {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &Leases{ttl: ttl, now: time.Now, exp: make(map[string]time.Time)}
}

// SetClock injects a time source for tests.
func (l *Leases) SetClock(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Touch grants or extends addr's lease to TTL from now.
func (l *Leases) Touch(addr string) {
	l.mu.Lock()
	l.exp[addr] = l.now().Add(l.ttl)
	l.mu.Unlock()
}

// Pinned implements core.PinSource: addr holds an unexpired lease.
func (l *Leases) Pinned(addr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	exp, ok := l.exp[addr]
	return ok && l.now().Before(exp)
}

// Lapsed implements core.PinSource: the addresses whose lease has run out
// since the last call, each reported once and forgotten, so the table
// stays proportional to recent upload traffic rather than store history.
// The table is walked at most once per quarter TTL — retention passes ask
// on every manifest they delete — so a lapse is reported that much late.
func (l *Leases) Lapsed() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	if now.Before(l.walkAt) {
		return nil
	}
	l.walkAt = now.Add(l.ttl / 4)
	var lapsed []string
	for addr, exp := range l.exp {
		if !now.Before(exp) {
			lapsed = append(lapsed, addr)
			delete(l.exp, addr)
		}
	}
	return lapsed
}

// Active counts unexpired leases.
func (l *Leases) Active() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	n := 0
	for _, exp := range l.exp {
		if now.Before(exp) {
			n++
		}
	}
	return n
}
