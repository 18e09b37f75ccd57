package main

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/storage"
)

// The bench-owned wrappers. Each sits at a public interface boundary,
// times the call, and forwards it unchanged; none may change the path
// the program takes. They exist only in traced runs.

// tracedBackend spans every call into a storage.Backend. Its capability
// set has exactly the non-nil handles of the backend it wraps, each
// pointing back through the wrapper, so callers that probe storage.Caps
// make the same fast-path decisions they would make on the bare backend.
type tracedBackend struct {
	inner storage.Backend
	tr    *tracer
	layer uint8
	// op, when non-nil, holds the id of the save or restore the owning
	// client is currently running. Server-side wrappers have none.
	op *atomic.Uint64

	put, get, list, del, stat, getRange, getBatch, ingest, orphans, occupancy uint8
}

func traceBackend(inner storage.Backend, tr *tracer, layer string, op *atomic.Uint64) *tracedBackend {
	return &tracedBackend{
		inner: inner, tr: tr, layer: tr.intern(layer), op: op,
		put: tr.intern("Put"), get: tr.intern("Get"), list: tr.intern("List"),
		del: tr.intern("Delete"), stat: tr.intern("Stat"), getRange: tr.intern("GetRange"),
		getBatch: tr.intern("GetBatch"), ingest: tr.intern("Ingest"),
		orphans: tr.intern("CollectOrphans"), occupancy: tr.intern("Occupancy"),
	}
}

// failed is what a span's err flag means at a storage boundary: the call
// did not do its job. A miss is an answer, not a failure — dedup probes
// Stat chunks that are not there yet on every save.
func failed(err error) bool {
	return err != nil && !errors.Is(err, storage.ErrNotFound)
}

func (b *tracedBackend) done(op uint8, start, bytes int64, err error) {
	var id uint64
	if b.op != nil {
		id = b.op.Load()
	}
	b.tr.record(b.layer, op, id, start, bytes, failed(err))
}

func (b *tracedBackend) Name() string                       { return b.inner.Name() }
func (b *tracedBackend) Capabilities() storage.Capabilities { return b.inner.Capabilities() }

// Caps implements storage.CapsReporter.
func (b *tracedBackend) Caps() storage.CapSet {
	in := storage.Caps(b.inner)
	out := storage.CapSet{Replication: in.Replication}
	if in.Range != nil {
		out.Range = b
	}
	if in.Batch != nil {
		out.Batch = b
	}
	if in.Ingest != nil {
		out.Ingest = b
	}
	if in.ClassWrite != nil {
		out.ClassWrite = b
	}
	if in.ClassIngest != nil {
		out.ClassIngest = b
	}
	if in.Orphans != nil {
		out.Orphans = b
	}
	if in.Occupancy != nil {
		out.Occupancy = b
	}
	return out
}

func (b *tracedBackend) Put(key string, data []byte) error {
	t0 := b.tr.now()
	err := b.inner.Put(key, data)
	b.done(b.put, t0, int64(len(data)), err)
	return err
}

func (b *tracedBackend) PutClass(key string, data []byte, class storage.WriteClass) error {
	t0 := b.tr.now()
	err := storage.PutClass(b.inner, key, data, class)
	b.done(b.put, t0, int64(len(data)), err)
	return err
}

func (b *tracedBackend) Get(key string) ([]byte, error) {
	t0 := b.tr.now()
	data, err := b.inner.Get(key)
	b.done(b.get, t0, int64(len(data)), err)
	return data, err
}

func (b *tracedBackend) GetRange(key string, off, n int64) ([]byte, error) {
	t0 := b.tr.now()
	data, err := storage.GetRange(b.inner, key, off, n)
	b.done(b.getRange, t0, int64(len(data)), err)
	return data, err
}

func (b *tracedBackend) GetBatch(keys []string) ([][]byte, []error) {
	t0 := b.tr.now()
	out, errs := storage.GetBatch(b.inner, keys)
	var n int64
	var first error
	for i := range out {
		n += int64(len(out[i]))
		if errs[i] != nil && first == nil {
			first = errs[i]
		}
	}
	b.done(b.getBatch, t0, n, first)
	return out, errs
}

func (b *tracedBackend) List(prefix string) ([]string, error) {
	t0 := b.tr.now()
	keys, err := b.inner.List(prefix)
	b.done(b.list, t0, 0, err)
	return keys, err
}

func (b *tracedBackend) Delete(key string) error {
	t0 := b.tr.now()
	err := b.inner.Delete(key)
	b.done(b.del, t0, 0, err)
	return err
}

func (b *tracedBackend) Stat(key string) (storage.ObjectInfo, error) {
	t0 := b.tr.now()
	info, err := b.inner.Stat(key)
	b.done(b.stat, t0, 0, err)
	return info, err
}

// IngestKeyed and IngestKeyedClass record the bytes offered; what the
// store below actually wrote shows at the next boundary down.
func (b *tracedBackend) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	t0 := b.tr.now()
	written, ok, err := storage.TryIngestKeyed(b.inner, key, addr, data)
	b.done(b.ingest, t0, int64(len(data)), err)
	return written, ok, err
}

func (b *tracedBackend) IngestKeyedClass(key, addr string, data []byte, class storage.WriteClass) (int, bool, error) {
	t0 := b.tr.now()
	written, ok, err := storage.TryIngestKeyedClass(b.inner, key, addr, data, class)
	b.done(b.ingest, t0, int64(len(data)), err)
	return written, ok, err
}

func (b *tracedBackend) CollectOrphans() (int, int64, bool, error) {
	t0 := b.tr.now()
	removed, reclaimed, ok, err := storage.TryCollectOrphans(b.inner)
	b.done(b.orphans, t0, reclaimed, err)
	return removed, reclaimed, ok, err
}

func (b *tracedBackend) Occupancy() ([]storage.LevelOccupancy, error) {
	t0 := b.tr.now()
	occ, err := storage.Caps(b.inner).Occupancy.Occupancy()
	b.done(b.occupancy, t0, 0, err)
	return occ, err
}

// tracedService spans every call into the api.Service the server is
// built on. It forwards ClassedService and QoSService because the server
// type-asserts both and takes a different path without them; *api.Local
// implements both, so the wrapper does unconditionally.
type tracedService struct {
	inner *api.Local
	tr    *tracer
	layer uint8
	ops   map[string]uint8
}

func traceService(inner *api.Local, tr *tracer) *tracedService {
	s := &tracedService{inner: inner, tr: tr, layer: tr.intern(layerAPI), ops: map[string]uint8{}}
	for _, op := range []string{
		"CommitManifest", "GetObject", "GetObjectRange", "GetObjects", "StatObject",
		"ListObjects", "DeleteObject", "HasAddresses", "IngestChunk", "Jobs", "CollectOrphans",
	} {
		s.ops[op] = tr.intern(op)
	}
	return s
}

var (
	_ api.Service        = (*tracedService)(nil)
	_ api.ClassedService = (*tracedService)(nil)
	_ api.QoSService     = (*tracedService)(nil)
)

func (s *tracedService) done(op string, start, bytes int64, err error) {
	s.tr.record(s.layer, s.ops[op], 0, start, bytes, failed(err))
}

func (s *tracedService) Caps() api.Caps   { return s.inner.Caps() }
func (s *tracedService) Stats() api.Stats { return s.inner.Stats() }

func (s *tracedService) CommitManifest(key string, data []byte) error {
	t0 := s.tr.now()
	err := s.inner.CommitManifest(key, data)
	s.done("CommitManifest", t0, int64(len(data)), err)
	return err
}

func (s *tracedService) CommitManifestClass(key string, data []byte, class storage.WriteClass) error {
	t0 := s.tr.now()
	err := s.inner.CommitManifestClass(key, data, class)
	s.done("CommitManifest", t0, int64(len(data)), err)
	return err
}

func (s *tracedService) GetObject(key string) ([]byte, error) {
	t0 := s.tr.now()
	data, err := s.inner.GetObject(key)
	s.done("GetObject", t0, int64(len(data)), err)
	return data, err
}

func (s *tracedService) GetObjectRange(key string, off, n int64) ([]byte, error) {
	t0 := s.tr.now()
	data, err := s.inner.GetObjectRange(key, off, n)
	s.done("GetObjectRange", t0, int64(len(data)), err)
	return data, err
}

func (s *tracedService) GetObjects(keys []string) ([][]byte, []error) {
	t0 := s.tr.now()
	out, errs := s.inner.GetObjects(keys)
	var n int64
	var first error
	for i := range out {
		n += int64(len(out[i]))
		if errs[i] != nil && first == nil {
			first = errs[i]
		}
	}
	s.done("GetObjects", t0, n, first)
	return out, errs
}

func (s *tracedService) StatObject(key string) (storage.ObjectInfo, error) {
	t0 := s.tr.now()
	info, err := s.inner.StatObject(key)
	s.done("StatObject", t0, 0, err)
	return info, err
}

func (s *tracedService) ListObjects(prefix string) ([]string, error) {
	t0 := s.tr.now()
	keys, err := s.inner.ListObjects(prefix)
	s.done("ListObjects", t0, 0, err)
	return keys, err
}

func (s *tracedService) DeleteObject(key string) error {
	t0 := s.tr.now()
	err := s.inner.DeleteObject(key)
	s.done("DeleteObject", t0, 0, err)
	return err
}

// HasAddresses records the number of addresses probed as its bytes.
func (s *tracedService) HasAddresses(keys []string) ([]bool, error) {
	t0 := s.tr.now()
	have, err := s.inner.HasAddresses(keys)
	s.done("HasAddresses", t0, int64(len(keys)), err)
	return have, err
}

func (s *tracedService) IngestChunk(key string, data []byte) (int, error) {
	t0 := s.tr.now()
	written, err := s.inner.IngestChunk(key, data)
	s.done("IngestChunk", t0, int64(len(data)), err)
	return written, err
}

func (s *tracedService) IngestChunkClass(key string, data []byte, class storage.WriteClass) (int, error) {
	t0 := s.tr.now()
	written, err := s.inner.IngestChunkClass(key, data, class)
	s.done("IngestChunk", t0, int64(len(data)), err)
	return written, err
}

func (s *tracedService) Jobs() ([]string, error) {
	t0 := s.tr.now()
	jobs, err := s.inner.Jobs()
	s.done("Jobs", t0, 0, err)
	return jobs, err
}

func (s *tracedService) CollectOrphans() (int, int64, error) {
	t0 := s.tr.now()
	removed, reclaimed, err := s.inner.CollectOrphans()
	s.done("CollectOrphans", t0, reclaimed, err)
	return removed, reclaimed, err
}

func (s *tracedService) QoSAdmit(tenant string, n int64) (time.Duration, string, bool) {
	return s.inner.QoSAdmit(tenant, n)
}
func (s *tracedService) QoSCharge(tenant string, n int64) { s.inner.QoSCharge(tenant, n) }
func (s *tracedService) QoSChargeChunk(tenant, addr string, n int64) {
	s.inner.QoSChargeChunk(tenant, addr, n)
}
func (s *tracedService) QoSCredit(tenant string, n int64) { s.inner.QoSCredit(tenant, n) }

// tracedHandler is the middleware around server.New: one span per HTTP
// request, tagged with the op id the client's transport sent. The span's
// bytes are the response body; a 429 counts as a failed span.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	layer uint8
	ops   map[string]uint8
}

func traceHandler(inner http.Handler, tr *tracer) *tracedHandler {
	h := &tracedHandler{inner: inner, tr: tr, layer: tr.intern(layerServer), ops: map[string]uint8{}}
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodPost, http.MethodDelete} {
		h.ops[m] = tr.intern(m)
	}
	return h
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	opID, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	cw := &countingWriter{ResponseWriter: w}
	t0 := h.tr.now()
	h.inner.ServeHTTP(cw, r)
	h.tr.record(h.layer, h.ops[r.Method], opID, t0, cw.bytes, cw.status == http.StatusTooManyRequests)
}

// tracedTransport is the RoundTripper handed to remote.Options.Transport:
// it stamps the client's current op id on the request and spans the
// exchange from send to the last body byte read. It wraps the same
// pooled transport remote.Dial would build for itself.
type tracedTransport struct {
	base  *http.Transport
	tr    *tracer
	layer uint8
	rt    uint8
	op    *atomic.Uint64
}

func traceTransport(tr *tracer, op *atomic.Uint64) *tracedTransport {
	return &tracedTransport{
		base:  &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second},
		tr:    tr,
		layer: tr.intern(layerRoundTrip),
		rt:    tr.intern("RoundTrip"),
		op:    op,
	}
}

// CloseIdleConnections is what http.Client.CloseIdleConnections, and so
// remote.Client.Close, looks for on its transport.
func (t *tracedTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.op.Load()
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	t0 := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.record(t.layer, t.rt, id, t0, 0, true)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, id: id, start: t0}
	return resp, nil
}

// spanBody ends the round-trip span when the client has finished with
// the response body.
type spanBody struct {
	io.ReadCloser
	t     *tracedTransport
	id    uint64
	start int64
	bytes int64
	done  bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.t.tr.record(b.t.layer, b.t.rt, b.id, b.start, b.bytes, false)
	}
	return err
}
