package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/storage"
)

// newQoSServer builds a server over a tiered store with a delta-to-warm
// placement policy and the given per-tenant QoS config.
func newQoSServer(t *testing.T, qos core.QoSConfig) (*httptest.Server, *storage.Tiered) {
	t.Helper()
	tb, err := storage.NewTiered(
		storage.Level{Name: "hot", Backend: storage.NewMem()},
		storage.Level{Name: "warm", Backend: storage.NewMem()},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewService(core.ServiceOptions{
		Backend:   tb,
		Placement: storage.DeltaToWarm("warm"),
		QoS:       qos,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(New(api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}), Options{}))
	t.Cleanup(ts.Close)
	return ts, tb
}

func doHeadered(t *testing.T, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerQuotaRejectsWith429 drives a tenant over its byte quota and
// checks the rejection rides the existing admission path: 429, throttled
// code, Retry-After, and per-tenant counters in /v1/stats. A different
// tenant on the same server stays unaffected.
func TestServerQuotaRejectsWith429(t *testing.T) {
	ts, _ := newQoSServer(t, core.QoSConfig{
		Tenants: map[string]core.TenantQoS{"hog": {QuotaBytes: 1024}},
	})
	hog := map[string]string{api.TenantHeader: "hog"}
	payload := bytes.Repeat([]byte("x"), 600)

	resp, _ := doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/hog/a", payload, hog)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first put: %d", resp.StatusCode)
	}
	resp, body := doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/hog/b", payload, hog)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota put: %d %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	var eb api.ErrorBody
	if json.Unmarshal(body, &eb); eb.Code != api.CodeThrottled {
		t.Errorf("error code = %q, want %q", eb.Code, api.CodeThrottled)
	}
	// Another tenant writes freely.
	resp, _ = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/quiet/a", payload,
		map[string]string{api.TenantHeader: "quiet"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unrelated tenant throttled: %d", resp.StatusCode)
	}
	// Per-tenant counters surface in /v1/stats.
	resp, body = doHeadered(t, http.MethodGet, ts.URL+api.PathStats, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	u, ok := st.Tenants["hog"]
	if !ok {
		t.Fatalf("tenant missing from stats: %+v", st.Tenants)
	}
	if u.ChargedBytes != 600 || u.Throttled == 0 || u.QuotaBytes != 1024 {
		t.Errorf("hog tenant stats: %+v", u)
	}
	if st.Throttled == 0 {
		t.Errorf("aggregate throttle count not bumped: %+v", st)
	}
}

// TestServerRateLimitRetryAfter checks a rate-limited tenant's rejection
// carries a refill-derived Retry-After.
func TestServerRateLimitRetryAfter(t *testing.T) {
	ts, _ := newQoSServer(t, core.QoSConfig{
		Tenants: map[string]core.TenantQoS{"fast": {RateBytesPerSec: 1024, BurstBytes: 1024}},
	})
	fast := map[string]string{api.TenantHeader: "fast"}
	payload := bytes.Repeat([]byte("y"), 2048) // drains the burst and overdraws

	resp, body := doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/fast/a", payload, fast)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("burst put: %d %s", resp.StatusCode, body)
	}
	resp, body = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/fast/b", payload, fast)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-burst put: %d %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
}

// TestServerClassHeaderPlacement proves a class header on the wire lands
// the write on the policy's level, and a bogus class name is a 400.
func TestServerClassHeaderPlacement(t *testing.T) {
	ts, tb := newQoSServer(t, core.QoSConfig{})
	chunk := []byte("remote delta chunk")
	addr := storage.Hash(chunk)
	key := "chunks/" + addr[:2] + "/" + addr

	resp, body := doHeadered(t, http.MethodPut, ts.URL+api.PathChunks+key, chunk,
		map[string]string{api.ClassHeader: "delta"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classed chunk put: %d %s", resp.StatusCode, body)
	}
	if lv, err := tb.Residency(key); err != nil || lv != 1 {
		t.Fatalf("delta chunk residency = %d, %v (want warm)", lv, err)
	}
	resp, _ = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/j/m", []byte("m"),
		map[string]string{api.ClassHeader: "manifest"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("classed manifest put: %d", resp.StatusCode)
	}
	if lv, err := tb.Residency("jobs/j/m"); err != nil || lv != 0 {
		t.Fatalf("manifest residency = %d, %v (want hot)", lv, err)
	}
	resp, _ = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/j/x", []byte("x"),
		map[string]string{api.ClassHeader: "nvme"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus class accepted: %d", resp.StatusCode)
	}

	// The occupancy-by-class breakdown rides /v1/stats: the delta chunk
	// counts on the warm level, the manifest on the hot one.
	resp, body = doHeadered(t, http.MethodGet, ts.URL+api.PathStats, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st api.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Levels) != 2 {
		t.Fatalf("stats levels = %+v, want 2 entries", st.Levels)
	}
	classBytes := func(lv api.LevelStats, class string) int64 {
		for _, c := range lv.ByClass {
			if c.Class == class {
				return c.Bytes
			}
		}
		return 0
	}
	if n := classBytes(st.Levels[1], "delta"); n != int64(len(chunk)) {
		t.Errorf("warm delta bytes = %d, want %d (%+v)", n, len(chunk), st.Levels[1])
	}
	if n := classBytes(st.Levels[0], "delta"); n != 0 {
		t.Errorf("hot level holds %d delta bytes (%+v)", n, st.Levels[0])
	}
	if n := classBytes(st.Levels[0], "manifest"); n == 0 {
		t.Errorf("hot level shows no manifest bytes (%+v)", st.Levels[0])
	}
}

// chargedBytes reads a tenant's ChargedBytes out of /v1/stats.
func chargedBytes(t *testing.T, ts *httptest.Server, tenant string) int64 {
	t.Helper()
	resp, body := doHeadered(t, http.MethodGet, ts.URL+api.PathStats, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.Tenants[tenant].ChargedBytes
}

// TestServerDeleteCreditsQuota proves the DELETE endpoint hands the
// object's bytes back to the tenant's quota — the path a remote job's
// retention GC rides, without which ChargedBytes would only ever grow
// and the tenant would be permanently 429'd once it filled its quota.
func TestServerDeleteCreditsQuota(t *testing.T) {
	ts, _ := newQoSServer(t, core.QoSConfig{
		Tenants: map[string]core.TenantQoS{"aging": {QuotaBytes: 1024}},
	})
	hdr := map[string]string{api.TenantHeader: "aging"}
	payload := bytes.Repeat([]byte("x"), 600)

	resp, _ := doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/aging/a", payload, hdr)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	if got := chargedBytes(t, ts, "aging"); got != 600 {
		t.Fatalf("charged after put = %d, want 600", got)
	}
	// A second 600-byte object would exceed the quota…
	resp, _ = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/aging/b", payload, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota put: %d", resp.StatusCode)
	}
	// …but deleting the first (what retention GC does) clears the way.
	resp, _ = doHeadered(t, http.MethodDelete, ts.URL+api.PathObjects+"jobs/aging/a", nil, hdr)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if got := chargedBytes(t, ts, "aging"); got != 0 {
		t.Fatalf("charged after delete = %d, want 0", got)
	}
	resp, _ = doHeadered(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/aging/b", payload, hdr)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put after credit: %d", resp.StatusCode)
	}
}

// TestServerRePutChargesDelta proves manifest PUTs are idempotent for
// quota accounting: the verify-then-retry protocol may re-send the same
// manifest after an ambiguous failure, and only growth over the
// resident copy is charged (shrinkage is credited).
func TestServerRePutChargesDelta(t *testing.T) {
	ts, _ := newQoSServer(t, core.QoSConfig{
		Tenants: map[string]core.TenantQoS{"retry": {QuotaBytes: 10 << 10}},
	})
	hdr := map[string]string{api.TenantHeader: "retry"}
	key := ts.URL + api.PathObjects + "jobs/retry/m"

	payload := bytes.Repeat([]byte("m"), 500)
	for i := 0; i < 3; i++ { // retried re-sends of one manifest
		if resp, _ := doHeadered(t, http.MethodPut, key, payload, hdr); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put %d: %d", i, resp.StatusCode)
		}
	}
	if got := chargedBytes(t, ts, "retry"); got != 500 {
		t.Fatalf("charged after re-puts = %d, want 500", got)
	}
	// Growing the object charges the delta; shrinking credits it.
	if resp, _ := doHeadered(t, http.MethodPut, key, bytes.Repeat([]byte("m"), 800), hdr); resp.StatusCode != http.StatusNoContent {
		t.Fatal("grow put failed")
	}
	if got := chargedBytes(t, ts, "retry"); got != 800 {
		t.Fatalf("charged after grow = %d, want 800", got)
	}
	if resp, _ := doHeadered(t, http.MethodPut, key, bytes.Repeat([]byte("m"), 300), hdr); resp.StatusCode != http.StatusNoContent {
		t.Fatal("shrink put failed")
	}
	if got := chargedBytes(t, ts, "retry"); got != 300 {
		t.Fatalf("charged after shrink = %d, want 300", got)
	}
}

// TestServerChunkSweepCreditsQuota proves canonical chunk charges are
// handed back when the orphan sweep collects the chunk: upload a chunk
// no manifest references, expire its lease, run GC, and the tenant's
// ChargedBytes drop back to zero.
func TestServerChunkSweepCreditsQuota(t *testing.T) {
	tb, err := storage.NewTiered(
		storage.Level{Name: "hot", Backend: storage.NewMem()},
		storage.Level{Name: "warm", Backend: storage.NewMem()},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewService(core.ServiceOptions{
		Backend: tb,
		QoS:     core.QoSConfig{Tenants: map[string]core.TenantQoS{"up": {QuotaBytes: 10 << 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	leases := api.NewLeases(time.Minute)
	now := time.Now()
	leases.SetClock(func() time.Time { return now })
	ts := httptest.NewServer(New(api.NewLocalOptions(svc, leases, api.LocalOptions{}), Options{}))
	t.Cleanup(ts.Close)

	chunk := bytes.Repeat([]byte("c"), 700)
	addr := storage.Hash(chunk)
	key := "chunks/" + addr[:2] + "/" + addr
	resp, body := doHeadered(t, http.MethodPut, ts.URL+api.PathChunks+key, chunk,
		map[string]string{api.TenantHeader: "up"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk put: %d %s", resp.StatusCode, body)
	}
	if got := chargedBytes(t, ts, "up"); got != 700 {
		t.Fatalf("charged after chunk put = %d, want 700", got)
	}
	// Let the upload lease lapse (the client never committed a manifest),
	// then collect: the orphaned chunk's bytes come back to the tenant.
	leases.SetClock(func() time.Time { return now.Add(2 * time.Minute) })
	resp, body = doHeadered(t, http.MethodPost, ts.URL+api.PathGC, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gc: %d %s", resp.StatusCode, body)
	}
	var gc api.GCResponse
	if err := json.Unmarshal(body, &gc); err != nil {
		t.Fatal(err)
	}
	if gc.Removed != 1 || gc.Reclaimed != 700 {
		t.Fatalf("gc response = %+v, want 1 chunk / 700 bytes", gc)
	}
	if got := chargedBytes(t, ts, "up"); got != 0 {
		t.Fatalf("charged after sweep = %d, want 0", got)
	}
}
