package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/storage"
)

func newTestServer(t *testing.T, opt Options) (*httptest.Server, *api.Local) {
	t.Helper()
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	local := api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{})
	ts := httptest.NewServer(New(local, opt))
	t.Cleanup(ts.Close)
	return ts, local
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
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

func TestObjectPlaneRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, Options{})

	resp, _ := doReq(t, http.MethodPut, ts.URL+api.PathObjects+"jobs/j/ckpt-000000000001-full.qckpt", []byte("manifest"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+api.PathObjects+"jobs/j/ckpt-000000000001-full.qckpt", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "manifest" {
		t.Fatalf("get: %d %q", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+api.PathObjects+"jobs/j/ckpt-000000000001-full.qckpt?off=4&n=3", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "fes" {
		t.Fatalf("range get: %d %q", resp.StatusCode, body)
	}
	// HEAD answers with size, no body.
	resp, body = doReq(t, http.MethodHead, ts.URL+api.PathObjects+"jobs/j/ckpt-000000000001-full.qckpt", nil)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 8 || len(body) != 0 {
		t.Fatalf("head: %d len=%d body=%q", resp.StatusCode, resp.ContentLength, body)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+api.PathList+"?prefix=jobs/", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+api.PathObjects+"jobs/j/ckpt-000000000001-full.qckpt", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
}

func TestErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	// A chunk-shaped key outside chunks/ is not the chunk plane's to serve.
	foreign := []byte("foreign chunk")
	foreignKey := storage.Hash(foreign)[:2] + "/" + storage.Hash(foreign)
	foreignHas, _ := json.Marshal(api.KeysRequest{Keys: []string{foreignKey}})
	// Key requests are bounded in bytes and in keys before anything is
	// fetched from the store. Both bodies name only a canonical chunk key,
	// so nothing but the bound refuses them.
	canonical := "chunks/" + foreignKey
	oversized := []byte(`{"keys":["` + canonical + `"]` + strings.Repeat(" ", maxKeysBodyBytes) + `}`)
	many := make([]string, maxKeysPerRequest+1)
	for i := range many {
		many[i] = canonical
	}
	tooMany, _ := json.Marshal(api.KeysRequest{Keys: many})
	cases := []struct {
		method, path string
		body         []byte
		status       int
		code         string
	}{
		{http.MethodGet, api.PathObjects + "absent", nil, http.StatusNotFound, api.CodeNotFound},
		{http.MethodDelete, api.PathObjects + "absent", nil, http.StatusNotFound, api.CodeNotFound},
		{http.MethodPut, api.PathChunks + foreignKey, foreign, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, api.PathHas, foreignHas, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, api.PathHas, oversized, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, api.PathHas, tooMany, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, api.PathBatch, oversized, http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, api.PathBatch, tooMany, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, c := range cases {
		resp, body := doReq(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != c.code {
			t.Errorf("%s %s: body %.200s", c.method, c.path, body)
		}
	}
	// A negative range on an existing key is a bad request.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+api.PathObjects+"k", []byte("0123456789")); resp.StatusCode != http.StatusNoContent {
		t.Fatal("seed put failed")
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+api.PathObjects+"k?off=-1&n=4", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative range: %d %s", resp.StatusCode, body)
	}
	// A corrupt chunk upload is a bad request, not a store write.
	data := []byte("chunk-bytes")
	addr := storage.Hash(data)
	resp, body = doReq(t, http.MethodPut, ts.URL+api.PathChunks+"chunks/"+addr[:2]+"/"+addr, data[:4])
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt upload: %d %s", resp.StatusCode, body)
	}
}

func TestChunkPlane(t *testing.T) {
	ts, local := newTestServer(t, Options{})
	data := []byte("shared chunk content")
	addr := storage.Hash(data)
	key := "chunks/" + addr[:2] + "/" + addr

	hasBody, _ := json.Marshal(api.KeysRequest{Keys: []string{key}})
	resp, body := doReq(t, http.MethodPost, ts.URL+api.PathHas, hasBody)
	var has api.HasResponse
	if err := json.Unmarshal(body, &has); err != nil || resp.StatusCode != 200 || len(has.Have) != 1 || has.Have[0] {
		t.Fatalf("has on empty store: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPut, ts.URL+api.PathChunks+key, data)
	var ing api.IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil || resp.StatusCode != 200 || ing.Written != len(data) {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPut, ts.URL+api.PathChunks+key, data)
	if err := json.Unmarshal(body, &ing); err != nil || resp.StatusCode != 200 || ing.Written != 0 {
		t.Fatalf("dedup ingest: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+api.PathHas, hasBody)
	if err := json.Unmarshal(body, &has); err != nil || resp.StatusCode != 200 || !has.Have[0] {
		t.Fatalf("has after ingest: %d %s", resp.StatusCode, body)
	}
	if st := local.Stats(); st.ChunkDedupHits != 1 || st.HasHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	doReq(t, http.MethodPut, ts.URL+api.PathObjects+"a", []byte("alpha"))
	doReq(t, http.MethodPut, ts.URL+api.PathObjects+"b", []byte("beta"))

	reqBody, _ := json.Marshal(api.KeysRequest{Keys: []string{"a", "missing", "b"}})
	resp, body := doReq(t, http.MethodPost, ts.URL+api.PathBatch, reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	r := bytes.NewReader(body)
	st, p, err := api.ReadBatchRecord(r)
	if err != nil || st != api.BatchStatusOK || string(p) != "alpha" {
		t.Fatalf("record a: %d %q %v", st, p, err)
	}
	st, p, err = api.ReadBatchRecord(r)
	if err != nil || st != api.BatchStatusNotFound {
		t.Fatalf("record missing: %d %q %v", st, p, err)
	}
	st, p, err = api.ReadBatchRecord(r)
	if err != nil || st != api.BatchStatusOK || string(p) != "beta" {
		t.Fatalf("record b: %d %q %v", st, p, err)
	}
	if _, _, err := api.ReadBatchRecord(r); err != io.EOF {
		t.Fatalf("stream not exhausted: %v", err)
	}
}

// blockingService wedges IngestChunkClass until released, so admission tests
// can hold requests in flight deterministically.
type blockingService struct {
	api.Service
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (b *blockingService) IngestChunkClass(key string, data []byte, class storage.WriteClass) (int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Service.IngestChunkClass(key, data, class)
}

// TestAdmissionControl: with a per-tenant bound of 1, a second concurrent
// upload from the same tenant is refused with 429 + Retry-After, while a
// different tenant is admitted; after the first upload completes the
// tenant's slot frees up.
func TestAdmissionControl(t *testing.T) {
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	blocking := &blockingService{
		Service: api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := New(blocking, Options{MaxInflightPerTenant: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	chunkURL := func(seed string) (string, []byte) {
		data := []byte("admission " + seed)
		addr := storage.Hash(data)
		return ts.URL + api.PathChunks + "chunks/" + addr[:2] + "/" + addr, data
	}

	// First upload from tenant A enters and blocks.
	firstDone := make(chan int, 1)
	u1, d1 := chunkURL("one")
	go func() {
		req, _ := http.NewRequest(http.MethodPut, u1, bytes.NewReader(d1))
		req.Header.Set(api.TenantHeader, "tenant-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first upload never reached the service")
	}

	// Second upload from tenant A: refused with 429 before touching the
	// service, carrying a Retry-After hint.
	u2, d2 := chunkURL("two")
	req, _ := http.NewRequest(http.MethodPut, u2, bytes.NewReader(d2))
	req.Header.Set(api.TenantHeader, "tenant-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant overload: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb api.ErrorBody
	if json.Unmarshal(body, &eb) != nil || eb.Code != api.CodeThrottled {
		t.Errorf("429 body: %s", body)
	}

	// Tenant B is not throttled by tenant A's saturation.
	u3, d3 := chunkURL("three")
	bDone := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, u3, bytes.NewReader(d3))
		req.Header.Set(api.TenantHeader, "tenant-b")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			bDone <- -1
			return
		}
		resp.Body.Close()
		bDone <- resp.StatusCode
	}()
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("tenant B was throttled by tenant A's backlog")
	}

	// Release both; tenant A's slot frees and a retry succeeds.
	close(blocking.release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first upload finished with %d", code)
	}
	if code := <-bDone; code != http.StatusOK {
		t.Fatalf("tenant B upload finished with %d", code)
	}
	req, _ = http.NewRequest(http.MethodPut, u2, bytes.NewReader(d2))
	req.Header.Set(api.TenantHeader, "tenant-a")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release retry: %d", resp.StatusCode)
	}

	// Stats surface the throttle count.
	resp, body = doReq(t, http.MethodGet, ts.URL+api.PathStats, nil)
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != 200 {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	if st.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", st.Throttled)
	}
}

func TestCapsAndGC(t *testing.T) {
	ts, local := newTestServer(t, Options{})
	resp, body := doReq(t, http.MethodGet, ts.URL+api.PathCaps, nil)
	var caps api.Caps
	if err := json.Unmarshal(body, &caps); err != nil || resp.StatusCode != 200 {
		t.Fatalf("caps: %d %s", resp.StatusCode, body)
	}
	if caps.Name != "mem" || !caps.Atomic {
		t.Errorf("caps = %+v", caps)
	}

	// An uploaded chunk whose lease has lapsed is collectable through the
	// GC endpoint.
	data := []byte("gc me")
	addr := storage.Hash(data)
	doReq(t, http.MethodPut, ts.URL+api.PathChunks+"chunks/"+addr[:2]+"/"+addr, data)
	local.Leases().SetClock(func() time.Time { return time.Now().Add(time.Hour) })
	resp, body = doReq(t, http.MethodPost, ts.URL+api.PathGC, nil)
	var gc api.GCResponse
	if err := json.Unmarshal(body, &gc); err != nil || resp.StatusCode != 200 {
		t.Fatalf("gc: %d %s", resp.StatusCode, body)
	}
	if gc.Removed != 1 {
		t.Errorf("gc = %+v", gc)
	}
}
