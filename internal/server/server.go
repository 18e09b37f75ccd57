// Package server exposes an api.Service over HTTP — the wire protocol of
// DESIGN.md §11. The handler is transport only: dedup, leases, and GC
// semantics live behind the api.Service; this layer adds key routing,
// error mapping, binary batch framing, and per-tenant admission control
// (bounded in-flight ingest with 429/Retry-After backpressure).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/storage"
)

// Options configures a Server.
type Options struct {
	// MaxInflightPerTenant bounds concurrently admitted ingest requests
	// (chunk uploads and manifest commits) per tenant; excess requests are
	// refused with 429 and a Retry-After hint. 0 selects
	// DefaultMaxInflight; negative disables admission control.
	MaxInflightPerTenant int
}

// DefaultMaxInflight is the per-tenant in-flight ingest bound: enough for
// a manager's worker pool with headroom, small enough that one tenant
// cannot monopolize the store's write path.
const DefaultMaxInflight = 64

// maxBodyBytes bounds one uploaded object (256 MiB — far above any
// chunk, roomy enough for unchunked manifests).
const maxBodyBytes = 256 << 20

// maxKeysBodyBytes and maxKeysPerRequest bound one /v1/has or /v1/batch
// request. The in-tree client sends at most 512 keys per has round and
// 256 per batch window, each under a hundred bytes; a request beyond
// either bound is refused before any key reaches the store.
const (
	maxKeysBodyBytes  = 1 << 20
	maxKeysPerRequest = 4096
)

// Server is the http.Handler serving the qckpt wire protocol.
type Server struct {
	svc       api.Service
	mux       *http.ServeMux
	admit     admission
	throttled atomic.Int64
}

// New wraps svc in the wire protocol handler.
func New(svc api.Service, opt Options) *Server {
	if opt.MaxInflightPerTenant == 0 {
		opt.MaxInflightPerTenant = DefaultMaxInflight
	}
	s := &Server{
		svc:   svc,
		admit: admission{limit: opt.MaxInflightPerTenant, inflight: make(map[string]int)},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathCaps, s.handleCaps)
	mux.HandleFunc("GET "+api.PathStats, s.handleStats)
	mux.HandleFunc("GET "+api.PathJobs, s.handleJobs)
	mux.HandleFunc("POST "+api.PathGC, s.handleGC)
	mux.HandleFunc("GET "+api.PathList, s.handleList)
	mux.HandleFunc("POST "+api.PathHas, s.handleHas)
	mux.HandleFunc("POST "+api.PathBatch, s.handleBatch)
	mux.HandleFunc("PUT "+api.PathChunks+"{key...}", s.handleChunkPut)
	mux.HandleFunc("GET "+api.PathObjects+"{key...}", s.handleObjectGet)
	mux.HandleFunc("PUT "+api.PathObjects+"{key...}", s.handleObjectPut)
	mux.HandleFunc("DELETE "+api.PathObjects+"{key...}", s.handleObjectDelete)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// admission bounds in-flight ingest per tenant. A plain counter table —
// not a queue — because backpressure is the point: the client owns the
// retry budget and pacing, the server just refuses to buffer unbounded
// uploads for a tenant that outruns the store.
type admission struct {
	limit    int
	mu       sync.Mutex
	inflight map[string]int
}

func (a *admission) acquire(tenant string) bool {
	if a.limit < 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight[tenant] >= a.limit {
		return false
	}
	a.inflight[tenant]++
	return true
}

func (a *admission) release(tenant string) {
	if a.limit < 0 {
		return
	}
	a.mu.Lock()
	if a.inflight[tenant] <= 1 {
		delete(a.inflight, tenant)
	} else {
		a.inflight[tenant]--
	}
	a.mu.Unlock()
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(api.TenantHeader); t != "" {
		return t
	}
	return api.DefaultTenant
}

// throttle refuses a request with 429 and a whole-second Retry-After.
func (s *Server) throttle(w http.ResponseWriter, retryAfterSecs int, msg string) {
	s.throttled.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	writeErr(w, http.StatusTooManyRequests, api.CodeThrottled, msg)
}

// admitPut is the one admission preamble of both PUT handlers: validated
// key, then the tenant's in-flight slot (held until commit returns), then
// the service's QoS table for the announced length — quota headroom and
// write-rate tokens, refused with a Retry-After from the limiter's own
// arithmetic (bucket refill time for "rate", GC cadence for "quota") —
// then the write-class header, then the bounded body. A refusal at any
// step writes the response here and commit never runs.
func (s *Server) admitPut(w http.ResponseWriter, r *http.Request, commit func(tenant, key string, body []byte, class storage.WriteClass)) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	tenant := tenantOf(r)
	if !s.admit.acquire(tenant) {
		s.throttle(w, 1, fmt.Sprintf("tenant %q has too many in-flight ingests", tenant))
		return
	}
	defer s.admit.release(tenant)
	// A negative length is chunked transfer encoding: admit, and charge
	// on landing.
	if retry, reason, ok := s.svc.QoSAdmit(tenant, max(r.ContentLength, 0)); !ok {
		s.throttle(w, max(int((retry+time.Second-1)/time.Second), 1),
			fmt.Sprintf("tenant %q over its %s limit", tenant, reason))
		return
	}
	class, ok := classOf(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	commit(tenant, key, body, class)
}

// classOf parses the write-class header; unknown names are a client bug
// worth a 400, not a silent fall-through to default placement.
func classOf(w http.ResponseWriter, r *http.Request) (storage.WriteClass, bool) {
	class, err := storage.ParseWriteClass(r.Header.Get(api.ClassHeader))
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return storage.ClassDefault, false
	}
	return class, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorBody{Error: msg, Code: code})
}

// writeMappedErr translates service errors onto the wire: missing keys
// are 404/not_found, malformed keys and ranges 400/bad_request, anything
// else 500/internal.
func writeMappedErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, storage.ErrNotFound):
		writeErr(w, http.StatusNotFound, api.CodeNotFound, err.Error())
	case isBadRequest(err):
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

// isBadRequest recognizes caller errors by message shape: the storage
// package reports malformed keys and invalid ranges with stable
// "storage: …" prefixes rather than sentinel errors.
func isBadRequest(err error) bool {
	msg := err.Error()
	for _, marker := range []string{
		"malformed key", "empty key", "invalid range",
		"not a chunk key", "malformed chunk address", "hashes to",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

// pathKey extracts and validates the {key...} wildcard.
func pathKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if err := storage.ValidateKey(key); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return "", false
	}
	return key, true
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// A short or oversized body is the client's problem (or the
		// network's); either way the upload was not applied.
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "read body: "+err.Error())
		return nil, false
	}
	return body, true
}

func readKeys(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	var req api.KeysRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxKeysBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: "+err.Error())
		return nil, false
	}
	if len(req.Keys) > maxKeysPerRequest {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("%d keys in one request, limit %d", len(req.Keys), maxKeysPerRequest))
		return nil, false
	}
	return req.Keys, true
}

func (s *Server) handleCaps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.svc.Caps())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	st.Throttled = s.throttled.Load()
	writeJSON(w, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.svc.Jobs()
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeJSON(w, api.ListResponse{Keys: jobs})
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	removed, reclaimed, err := s.svc.CollectOrphans()
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeJSON(w, api.GCResponse{Removed: removed, Reclaimed: reclaimed})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	keys, err := s.svc.ListObjects(r.URL.Query().Get("prefix"))
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeJSON(w, api.ListResponse{Keys: keys})
}

func (s *Server) handleHas(w http.ResponseWriter, r *http.Request) {
	keys, ok := readKeys(w, r)
	if !ok {
		return
	}
	have, err := s.svc.HasAddresses(keys)
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeJSON(w, api.HasResponse{Have: have})
}

// handleBatch streams one binary record per requested key, in order (see
// api batch framing). Per-key failures ride inside their records; the
// HTTP status stays 200 because the batch as a whole only fails per key.
// The fetch itself runs through the batch planner: duplicates collapse
// to one store read and the unique set is sorted before it reaches the
// backend (see batchPlan).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	keys, ok := readKeys(w, r)
	if !ok {
		return
	}
	plan := planBatch(keys)
	datas, errs := plan.scatter(s.svc.GetObjects(plan.fetch))
	w.Header().Set("Content-Type", "application/octet-stream")
	for i := range keys {
		var werr error
		switch {
		case errs[i] == nil:
			werr = api.WriteBatchRecord(w, api.BatchStatusOK, datas[i])
		case errors.Is(errs[i], storage.ErrNotFound):
			werr = api.WriteBatchRecord(w, api.BatchStatusNotFound, []byte(errs[i].Error()))
		default:
			werr = api.WriteBatchRecord(w, api.BatchStatusError, []byte(errs[i].Error()))
		}
		if werr != nil {
			return // client went away; nothing sensible left to send
		}
	}
}

func (s *Server) handleChunkPut(w http.ResponseWriter, r *http.Request) {
	s.admitPut(w, r, func(tenant, key string, body []byte, class storage.WriteClass) {
		written, err := s.svc.IngestChunkClass(key, body, class)
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		// The ingest accepted key, so it is canonical: the charge carries
		// owner bookkeeping, and the orphan sweep credits the bytes back
		// when the chunk ages out of every manifest.
		if written > 0 {
			addr, _ := api.CanonicalChunkAddr(key)
			s.svc.QoSChargeChunk(tenant, addr, int64(written))
		}
		writeJSON(w, api.IngestResponse{Written: written})
	})
}

func (s *Server) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	s.admitPut(w, r, func(tenant, key string, body []byte, class storage.WriteClass) {
		// Overwrites charge only the growth over the resident copy: the
		// remote client's verify-then-retry protocol may legitimately
		// re-send the same manifest after an ambiguous failure, and a
		// re-PUT must be idempotent for quota accounting — so every
		// commit pays one Stat first, policed tenants or not.
		var prev int64
		if info, err := s.svc.StatObject(key); err == nil {
			prev = info.Size
		}
		if err := s.svc.CommitManifestClass(key, body, class); err != nil {
			writeMappedErr(w, err)
			return
		}
		if delta := int64(len(body)) - prev; delta > 0 {
			s.svc.QoSCharge(tenant, delta)
		} else if delta < 0 {
			s.svc.QoSCredit(tenant, -delta)
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// handleObjectGet serves GET (full or ?off=&n= range reads) and, via the
// ServeMux GET pattern, HEAD — which answers from Stat alone.
func (s *Server) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodHead {
		info, err := s.svc.StatObject(key)
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	q := r.URL.Query()
	var data []byte
	var err error
	if q.Has("off") || q.Has("n") {
		var off, n int64
		if off, err = strconv.ParseInt(q.Get("off"), 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad off: "+err.Error())
			return
		}
		if n, err = strconv.ParseInt(q.Get("n"), 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad n: "+err.Error())
			return
		}
		data, err = s.svc.GetObjectRange(key, off, n)
	} else {
		data, err = s.svc.GetObject(key)
	}
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	// With QoS active the tenant gets the deleted object's bytes back —
	// this is what keeps "the quota clears as history ages out" true for
	// remote tenants, whose retention GC deletes through this endpoint.
	// Stat before delete is the only moment the size is known, mirroring
	// Manager.gc's Stat-then-delete-then-credit.
	var credit int64
	if info, err := s.svc.StatObject(key); err == nil {
		credit = info.Size
	}
	if err := s.svc.DeleteObject(key); err != nil {
		writeMappedErr(w, err)
		return
	}
	if credit > 0 {
		s.svc.QoSCredit(tenantOf(r), credit)
	}
	w.WriteHeader(http.StatusNoContent)
}
