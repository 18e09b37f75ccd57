package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Per-tenant QoS: byte quotas and token-bucket rate limits for the
// multi-tenant Service. Quotas bound a tenant's resident footprint (soft
// ceiling, checked at save admission, credited back by retention GC);
// rate limits bound its write bandwidth so a noisy neighbor saving huge
// states back to back cannot starve the quiet tenants sharing the store.
// A local Manager pays its rate debt by sleeping in its own write path
// (backpressure the trainer feels, nobody else); the network server
// converts the same arithmetic into 429 + Retry-After rejections.

// ErrQuotaExceeded is returned by Save when the tenant's charged bytes
// have reached its quota. Retention GC credits deleted manifests back,
// so the condition clears as history ages out.
var ErrQuotaExceeded = fmt.Errorf("core: tenant byte quota exceeded")

// TenantQoS is one tenant's limits. The zero value means unlimited.
type TenantQoS struct {
	// QuotaBytes caps the bytes charged to the tenant (0 = unlimited).
	// Charging is by bytes that actually reached the store — dedup hits
	// and clean-chunk reuse are free — so the quota measures footprint,
	// not traffic. Chunks shared across tenants are charged to whichever
	// tenant wrote them first; an approximation, documented in DESIGN §13.
	QuotaBytes int64
	// RateBytesPerSec caps the tenant's sustained write bandwidth through
	// a token bucket (0 = unlimited).
	RateBytesPerSec int64
	// BurstBytes is the bucket depth (default: one second's worth of
	// rate). Bursts up to this size pass unthrottled.
	BurstBytes int64
}

// unlimited reports whether the limits are all zero.
func (t TenantQoS) unlimited() bool { return t == TenantQoS{} }

// QoSConfig is the service-wide QoS table: a default applied to every
// tenant without an explicit entry, plus per-tenant overrides.
type QoSConfig struct {
	Default TenantQoS
	Tenants map[string]TenantQoS
}

// enabled reports whether any limit is configured.
func (c QoSConfig) enabled() bool {
	return !c.Default.unlimited() || len(c.Tenants) > 0
}

// qosQuotaRetryAfter is the Retry-After the server suggests for quota
// rejections: the quota clears when retention GC ages history out, which
// is save-cadence — not milliseconds — away.
const qosQuotaRetryAfter = 5 * time.Second

// tenantQoS is one tenant's live QoS state. All methods are nil-safe so
// managers without QoS pay a single pointer test.
type tenantQoS struct {
	id    string
	limit TenantQoS

	charged atomic.Int64 // bytes charged against the quota

	mu     sync.Mutex
	tokens float64 // token-bucket fill in bytes; briefly negative after an overshoot
	last   time.Time

	throttled  atomic.Int64 // throttle events (local sleeps + server rejections)
	throttleNs atomic.Int64 // total nanoseconds of imposed delay
}

func (t *tenantQoS) burst() float64 {
	if t.limit.BurstBytes > 0 {
		return float64(t.limit.BurstBytes)
	}
	return float64(t.limit.RateBytesPerSec)
}

// checkQuota is the save-admission gate.
func (t *tenantQoS) checkQuota() error {
	if t == nil || t.limit.QuotaBytes <= 0 {
		return nil
	}
	if used := t.charged.Load(); used >= t.limit.QuotaBytes {
		t.throttled.Add(1)
		return fmt.Errorf("%w: tenant %s holds %d of %d bytes", ErrQuotaExceeded, t.id, used, t.limit.QuotaBytes)
	}
	return nil
}

// chargeQuota records n stored bytes against the quota.
func (t *tenantQoS) chargeQuota(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.charged.Add(n)
}

// creditQuota hands n bytes back (retention GC deleting the tenant's
// manifests). The balance clamps at zero: a store carrying history from
// before QoS was enabled must not mint credit out of it.
func (t *tenantQoS) creditQuota(n int64) {
	if t == nil || n <= 0 {
		return
	}
	for {
		cur := t.charged.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if t.charged.CompareAndSwap(cur, next) {
			return
		}
	}
}

// admit runs the token bucket, refilled on c, for n incoming bytes. While
// the bucket is positive the write is admitted (and may overdraw it — one
// oversized write is allowed through rather than wedging forever);
// otherwise it reports how long until the bucket refills enough.
func (t *tenantQoS) admit(n int64, c clock.Clock) (wait time.Duration, ok bool) {
	if t == nil || t.limit.RateBytesPerSec <= 0 {
		return 0, true
	}
	rate := float64(t.limit.RateBytesPerSec)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := c.Now()
	if t.last.IsZero() {
		t.tokens = t.burst() // a fresh tenant starts with a full bucket
	} else {
		t.tokens = min(t.tokens+rate*now.Sub(t.last).Seconds(), t.burst())
	}
	t.last = now
	if t.tokens > 0 {
		t.tokens -= float64(n)
		return 0, true
	}
	needed := min(float64(n), t.burst())
	return time.Duration((needed - t.tokens) / rate * float64(time.Second)), false
}

// bill charges n persisted bytes to the tenant's quota and pays its rate
// debt for them by sleeping on c — the local Manager's backpressure path.
// The sleep lands in the writing tenant's own save path (the sequencer
// goroutine for async managers), never in anyone else's. Free when no QoS
// is wired or the save was fully absorbed by dedup.
func (t *tenantQoS) bill(n int64, c clock.Clock) {
	if t == nil || n <= 0 {
		return
	}
	t.chargeQuota(n)
	for {
		wait, ok := t.admit(n, c)
		if ok {
			return
		}
		t.throttled.Add(1)
		t.throttleNs.Add(int64(wait))
		c.Sleep(wait)
	}
}

// admitOrRetry is the server's non-sleeping admission check for n
// incoming bytes: quota first (reason "quota"), then the token bucket
// (reason "rate"). The returned delay rides a 429 Retry-After.
func (t *tenantQoS) admitOrRetry(n int64, c clock.Clock) (retryAfter time.Duration, reason string, ok bool) {
	if t == nil {
		return 0, "", true
	}
	if q := t.limit.QuotaBytes; q > 0 && t.charged.Load()+n > q {
		t.throttled.Add(1)
		return qosQuotaRetryAfter, "quota", false
	}
	if wait, ok := t.admit(n, c); !ok {
		t.throttled.Add(1)
		t.throttleNs.Add(int64(wait))
		return wait, "rate", false
	}
	return 0, "", true
}

// TenantUsage is one tenant's QoS counters, surfaced through the service
// stats endpoint.
type TenantUsage struct {
	QuotaBytes      int64
	RateBytesPerSec int64
	ChargedBytes    int64
	Throttled       int64
	ThrottleWait    time.Duration
}

// qosTable resolves tenant IDs to their live QoS state. nil when QoS is
// disabled — every method tolerates that.
type qosTable struct {
	cfg QoSConfig

	mu      sync.Mutex
	tenants map[string]*tenantQoS
}

func newQoSTable(cfg QoSConfig) *qosTable {
	if !cfg.enabled() {
		return nil
	}
	return &qosTable{cfg: cfg, tenants: make(map[string]*tenantQoS)}
}

// tenant returns (creating on first use) the state for id. Tenants
// without an explicit config entry get the default limits.
func (q *qosTable) tenant(id string) *tenantQoS {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[id]; ok {
		return t
	}
	lim, ok := q.cfg.Tenants[id]
	if !ok {
		lim = q.cfg.Default
	}
	t := &tenantQoS{id: id, limit: lim}
	q.tenants[id] = t
	return t
}

// usage snapshots every known tenant's counters.
func (q *qosTable) usage() map[string]TenantUsage {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]TenantUsage, len(q.tenants))
	for id, t := range q.tenants {
		out[id] = TenantUsage{
			QuotaBytes:      t.limit.QuotaBytes,
			RateBytesPerSec: t.limit.RateBytesPerSec,
			ChargedBytes:    t.charged.Load(),
			Throttled:       t.throttled.Load(),
			ThrottleWait:    time.Duration(t.throttleNs.Load()),
		}
	}
	return out
}
