package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// qosState builds a state with an incompressible n-float payload so the
// byte accounting the tests assert on is proportional to n.
func qosState(step uint64, n int, seed int64) *TrainingState {
	r := rand.New(rand.NewSource(seed))
	s := NewTrainingState()
	s.Step = step
	s.Params = make([]float64, n)
	for i := range s.Params {
		s.Params[i] = r.Float64()
	}
	return s
}

func TestServiceQuotaRejectsSave(t *testing.T) {
	svc, err := NewService(ServiceOptions{
		Dir: t.TempDir(),
		QoS: QoSConfig{Default: TenantQoS{QuotaBytes: 8 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	m, err := svc.OpenJob("greedy", Options{Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	var rejected error
	for i := 0; i < 10; i++ {
		if _, err := m.Save(qosState(uint64(i), 512, int64(i))); err != nil {
			rejected = err
			break
		}
	}
	if !errors.Is(rejected, ErrQuotaExceeded) {
		t.Fatalf("saves never hit the quota: %v", rejected)
	}
	usage := svc.QoSUsage()
	u, ok := usage["greedy"]
	if !ok {
		t.Fatalf("tenant missing from usage: %v", usage)
	}
	if u.ChargedBytes < 8<<10 || u.Throttled == 0 {
		t.Errorf("usage after rejection: %+v", u)
	}
	// The store itself stays recoverable: what was admitted restores.
	if _, _, err := LoadLatestBackendOptions(m.Backend(), nil, RestoreOptions{}); err != nil {
		t.Fatalf("restore after quota rejection: %v", err)
	}
}

// TestServiceQuotaCreditedByGC proves the quota measures footprint, not
// lifetime traffic: with retention deleting old snapshots (and crediting
// their bytes back), a job writes many times its quota without ever being
// rejected.
func TestServiceQuotaCreditedByGC(t *testing.T) {
	svc, err := NewService(ServiceOptions{
		Dir: t.TempDir(),
		QoS: QoSConfig{Default: TenantQoS{QuotaBytes: 24 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	m, err := svc.OpenJob("steady", Options{Strategy: StrategyFull, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // ~16 × 4 KiB written against a 24 KiB quota
		if _, err := m.Save(qosState(uint64(i), 512, int64(i))); err != nil {
			t.Fatalf("save %d rejected despite retention credit: %v", i, err)
		}
	}
	if u := svc.QoSUsage()["steady"]; u.ChargedBytes > 24<<10 {
		t.Errorf("charged %d bytes exceeds quota despite credits", u.ChargedBytes)
	}
}

func TestServiceRatePacingThrottles(t *testing.T) {
	svc, err := NewService(ServiceOptions{
		Dir: t.TempDir(),
		QoS: QoSConfig{Tenants: map[string]TenantQoS{
			"noisy": {RateBytesPerSec: 1 << 20, BurstBytes: 4 << 10},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// The bucket runs on a clock that only a pacing sleep advances: however
	// long a save really takes (longer than the 4 ms refill under -race on
	// a busy box), the bucket has not refilled when the next one arrives.
	// The manager is synchronous, so the clock stays on this goroutine.
	clock := time.Unix(0, 0)
	noisy := svc.qos.tenant("noisy")
	noisy.now = func() time.Time { return clock }
	noisy.sleep = func(d time.Duration) { clock = clock.Add(d) }
	m, err := svc.OpenJob("noisy", Options{Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	// Each save writes ~4 KiB against a 4 KiB bucket refilling at 1 MiB/s:
	// the first rides the initial burst, later ones must wait for refill.
	for i := 0; i < 4; i++ {
		if _, err := m.Save(qosState(uint64(i), 512, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	u := svc.QoSUsage()["noisy"]
	if u.Throttled < 3 || u.ThrottleWait != clock.Sub(time.Unix(0, 0)) {
		t.Errorf("rate-limited tenant paced %d times for %v (clock advanced %v), want every save after the first: %+v",
			u.Throttled, u.ThrottleWait, clock.Sub(time.Unix(0, 0)), u)
	}
	// An unlimited tenant on the same service is untouched.
	q, err := svc.OpenJob("quiet", Options{Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Save(qosState(0, 512, 99)); err != nil {
		t.Fatal(err)
	}
	if u := svc.QoSUsage()["quiet"]; u.Throttled != 0 {
		t.Errorf("unlimited tenant throttled: %+v", u)
	}
}

// TestAdmitOrRetry exercises the server-side (non-sleeping) admission
// arithmetic directly.
func TestAdmitOrRetry(t *testing.T) {
	// Quota dimension.
	q := &tenantQoS{id: "q", limit: TenantQoS{QuotaBytes: 100}}
	if _, _, ok := q.admitOrRetry(80); !ok {
		t.Fatal("under-quota ingest refused")
	}
	q.chargeQuota(80)
	retry, reason, ok := q.admitOrRetry(40)
	if ok || reason != "quota" || retry <= 0 {
		t.Fatalf("over-quota ingest: retry=%v reason=%q ok=%v", retry, reason, ok)
	}
	// Rate dimension: drain the burst, next ingest must name a wait.
	r := &tenantQoS{id: "r", limit: TenantQoS{RateBytesPerSec: 1000, BurstBytes: 1000}, now: time.Now}
	if _, _, ok := r.admitOrRetry(2000); !ok {
		t.Fatal("burst-riding ingest refused")
	}
	retry, reason, ok = r.admitOrRetry(500)
	if ok || reason != "rate" {
		t.Fatalf("post-burst ingest admitted: reason=%q", reason)
	}
	if retry <= 0 || retry > 5*time.Second {
		t.Fatalf("implausible retry-after %v", retry)
	}
	// Nil tenant (QoS disabled) admits everything.
	var none *tenantQoS
	if _, _, ok := none.admitOrRetry(1 << 40); !ok {
		t.Fatal("nil tenant refused")
	}
}

func TestQuotaCreditClampsAtZero(t *testing.T) {
	q := &tenantQoS{id: "c", limit: TenantQoS{QuotaBytes: 100}}
	q.chargeQuota(10)
	q.creditQuota(50) // pre-QoS history aging out must not mint credit
	if got := q.charged.Load(); got != 0 {
		t.Fatalf("charged = %d after over-credit, want 0", got)
	}
	if err := q.checkQuota(); err != nil {
		t.Fatalf("clamped tenant rejected: %v", err)
	}
}

// TestChunkSweepCreditsQuota proves the quota measures the tenant's true
// resident footprint in the chunked path too: after retention GC deletes
// old manifests and the orphan sweep collects their chunks, ChargedBytes
// equals the bytes actually resident in the store — charges and credits
// cancel exactly for both manifests and chunks.
func TestChunkSweepCreditsQuota(t *testing.T) {
	svc, err := NewService(ServiceOptions{
		Dir: t.TempDir(),
		QoS: QoSConfig{Default: TenantQoS{QuotaBytes: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	m, err := svc.OpenJob("chunky", Options{Strategy: StrategyFull, Retain: 1, ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Each save's body is fresh random floats, so successive snapshots
	// share no chunks: retention GC orphans the whole previous chain.
	for i := 0; i < 4; i++ {
		if _, err := m.Save(qosState(uint64(i), 4096, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Explicit collection settles anything retention's best-effort sweep
	// skipped (it steps aside when another collection holds the lock).
	if _, _, err := svc.CollectOrphans(); err != nil {
		t.Fatal(err)
	}
	var resident int64
	keys, err := svc.Backend().List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		info, err := svc.Backend().Stat(k)
		if err != nil {
			t.Fatal(err)
		}
		resident += info.Size
	}
	if got := svc.QoSUsage()["chunky"].ChargedBytes; got != resident {
		t.Fatalf("charged %d bytes, resident %d — chunk credits drifted", got, resident)
	}
}
