// Package remote is the client end of the qckpt wire protocol: a
// storage.Backend backed by a qckpt server (internal/server), so an
// unmodified core.Manager saves and restores over the network.
//
// The client routes by key. Canonical chunk keys (api.CanonicalChunkAddr)
// arriving through the storage.AddressedIngester fast path ride the chunk
// plane: an
// address-first "which of these do you already have" round (coalesced
// across concurrent workers into batched /v1/has requests), then verified
// uploads only for the misses — so a chunk any tenant already stored
// never crosses the wire again. Everything else is an object commit.
//
// Every request goes through call, under one of the three rules of DESIGN.md
// §11's idempotency table: idempotent (reads, listings, has-probes, batch
// windows and chunk uploads are re-sent with jittered exponential backoff,
// honoring Retry-After, after a transport error or a 429/500/502/503/504),
// commit (an object Put is re-sent after a 429, and after an ambiguous
// transport failure only when reading the key back shows the stored bytes
// don't match) and once (a Delete). A batch response's records are cut in
// place from the received body, so a length prefix cannot claim more bytes
// than arrived.
package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/storage"
)

// Options configures a Client.
type Options struct {
	// Tenant is sent as the Qckpt-Tenant header on every request; the
	// server scopes admission control by it. Empty means api.DefaultTenant.
	Tenant string
	// Transport overrides the pooled default (fault-injection tests plug a
	// flaky RoundTripper in here).
	Transport http.RoundTripper
}

const (
	// maxRetries is the retry budget of the rules that re-send: attempts
	// after the first.
	maxRetries = 4
	// retryBase is the first backoff delay, doubled per attempt with full
	// jitter. Tests that retry install a clock (SetClock) instead of a
	// shorter base.
	retryBase = 50 * time.Millisecond
	// requestTimeout bounds a single HTTP request.
	requestTimeout = 2 * time.Minute
	// maxHasBatch caps one coalesced /v1/has round.
	maxHasBatch = 512
	// maxConcurrentReads bounds this client's simultaneous wire reads
	// (Get, range and batch requests): a gang of restorers sharing one
	// server each keep their fan-out polite instead of stampeding it with
	// Workers × restorers sockets.
	maxConcurrentReads = 8
	// maxBatchWindow caps one /v1/batch request: a restore of a long
	// chain goes down in windows, so the server streams bounded responses
	// and the client overlaps parsing with the next window's fetch being
	// admitted.
	maxBatchWindow = 256
)

// ClientStats are this client's own wire counters — what it sent,
// received, and retried — so harnesses account traffic without a
// counting RoundTripper. Bytes are request/response payloads (HTTP and
// TCP framing excluded).
type ClientStats struct {
	Requests      int64 `json:"requests"`
	Retries       int64 `json:"retries"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// Client is a storage.Backend served by a remote qckpt server. It also
// implements RangeReader, BatchReader, AddressedIngester and
// OrphanCollector, so range reads, batched restores, the dedup handshake
// and GC all cross the wire on their dedicated endpoints.
type Client struct {
	base   string // "http://host:port", no trailing slash
	hc     *http.Client
	opt    Options
	caps   api.Caps
	haster *hasBatcher
	clock  clock.Clock // backoff sleeps on it: clock.Wall, or a test's fake

	// readSlots bounds concurrent wire reads.
	readSlots chan struct{}

	requests      atomic.Int64
	retries       atomic.Int64
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
}

var (
	_ storage.Backend           = (*Client)(nil)
	_ storage.RangeReader       = (*Client)(nil)
	_ storage.BatchReader       = (*Client)(nil)
	_ storage.AddressedIngester = (*Client)(nil)
	_ storage.OrphanCollector   = (*Client)(nil)
)

// Dial connects to a qckpt server, fetches its capabilities, and returns
// a ready Backend. The capability fetch doubles as the protocol
// handshake: a URL that is not a qckpt server fails here, not mid-save.
func Dial(baseURL string, opt Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("remote: bad server URL %q", baseURL)
	}
	if opt.Tenant == "" {
		opt.Tenant = api.DefaultTenant
	}
	rt := opt.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Client{
		base:      strings.TrimRight(u.String(), "/"),
		hc:        &http.Client{Transport: rt, Timeout: requestTimeout},
		opt:       opt,
		clock:     clock.Wall,
		readSlots: make(chan struct{}, maxConcurrentReads),
	}
	c.haster = &hasBatcher{send: c.hasRound}
	if _, _, err := c.call(req{op: "dial", key: baseURL, method: http.MethodGet, path: api.PathCaps}, &c.caps); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases pooled connections.
func (c *Client) Close() {
	c.hc.CloseIdleConnections()
}

// Name implements storage.Backend.
func (c *Client) Name() string { return "remote(" + c.caps.Name + ")" }

// Capabilities proxies the server store's guarantees.
func (c *Client) Capabilities() storage.Capabilities {
	return storage.Capabilities{
		Atomic:     c.caps.Atomic,
		Persistent: c.caps.Persistent,
		Modeled:    c.caps.Modeled,
	}
}

// Caps implements storage.CapsReporter. Every handle points at this
// client: ranged reads, batch windows, the dedup handshake, classed
// writes and delegated GC are protocol endpoints that exist on every
// qckpt server, whatever its store (a store without the matching fast
// path serves them all the same, just without the shortcut). The
// replication geometry is the server's own, surfaced so callers above a
// remote store see the same ReplicationInfo they would see locally.
func (c *Client) Caps() storage.CapSet {
	set := storage.CapSet{
		Range:       c,
		Batch:       c,
		Ingest:      c,
		ClassWrite:  c,
		ClassIngest: c,
		Orphans:     c,
	}
	if c.caps.Replicas > 0 {
		set.Replication = storage.ReplicationInfo{
			Replicas:    c.caps.Replicas,
			WriteQuorum: c.caps.WriteQuorum,
			ReadQuorum:  c.caps.ReadQuorum,
			Domains:     append([]string(nil), c.caps.Domains...),
		}
	}
	return set
}

// --- the one request path ---

// rule is how call treats a failed attempt: DESIGN.md §11's idempotency
// table, one row per rule.
type rule int

const (
	// idempotent requests — reads, listings, has-probes, batch windows and
	// chunk uploads (content-addressed: a replay is a dedup hit) — are
	// re-sent after a transport error or a 429/500/502/503/504.
	idempotent rule = iota
	// commit is an object Put. A 429 was refused at admission, so it is
	// re-sent; any other clean status means not applied and is returned. A
	// transport error is ambiguous: the key is read back, and the commit
	// is re-sent only when the stored bytes don't match.
	commit
	// once is a Delete, sent once: a replay of a delete that landed would
	// report a spurious ErrNotFound, and nothing in the save or GC path
	// needs delete-at-all-costs semantics.
	once
)

// resends reports whether a clean status is worth another attempt under r.
func (r rule) resends(status int) bool {
	switch status {
	case http.StatusTooManyRequests:
		return r != once
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return r == idempotent
	}
	return false
}

// req is one request: the rule it is sent under, the op and key its
// errors name (a commit also reads the key back), and what goes on the
// wire. A write class other than ClassDefault rides as a header, so the
// server's placement policy sees remote writes with the same fidelity as
// local ones.
type req struct {
	rule    rule
	op, key string
	method  string
	path    string
	query   url.Values
	body    []byte
	class   storage.WriteClass
}

// call is the only code that sends a request: it sends r under r.rule
// with full-jitter exponential backoff between attempts, maps a status
// other than 200 or 204 through wireError, and decodes a successful body
// as JSON into out unless out is nil. It returns the successful
// response's headers and body.
func (c *Client) call(r req, out any) (http.Header, []byte, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		status, hdr, data, err := c.roundTrip(r)
		switch {
		case err != nil:
			if r.rule == commit { // ambiguous: the commit may have landed
				if got, gerr := c.Get(r.key); gerr == nil && bytes.Equal(got, r.body) {
					return nil, nil, nil
				}
			}
			if r.rule == once || attempt == maxRetries {
				return nil, nil, fmt.Errorf("remote: %s %s: %w", r.op, r.key, err)
			}
		case status == http.StatusOK || status == http.StatusNoContent:
			if out != nil {
				if err := json.Unmarshal(data, out); err != nil {
					return nil, nil, fmt.Errorf("remote: %s %s: %w", r.op, r.key, err)
				}
			}
			return hdr, data, nil
		case attempt == maxRetries || !r.rule.resends(status):
			return nil, nil, wireError(r.op, r.key, status, data)
		}
		c.backoff(attempt, hdr)
	}
}

// roundTrip performs one attempt of r and returns the status, headers,
// and the fully read body. A non-nil error means the exchange itself
// failed — the server may or may not have applied the request.
func (c *Client) roundTrip(r req) (int, http.Header, []byte, error) {
	u := c.base + r.path
	if len(r.query) > 0 {
		u += "?" + r.query.Encode()
	}
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	hr.Header.Set(api.TenantHeader, c.opt.Tenant)
	if r.class != storage.ClassDefault {
		hr.Header.Set(api.ClassHeader, r.class.String())
	}
	c.requests.Add(1)
	c.bytesSent.Add(int64(len(r.body)))
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.bytesReceived.Add(int64(len(data)))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// acquireRead takes a wire read slot; the returned func releases it.
func (c *Client) acquireRead() func() {
	c.readSlots <- struct{}{}
	return func() { <-c.readSlots }
}

// ClientStats snapshots this client's own wire counters.
func (c *Client) ClientStats() ClientStats {
	return ClientStats{
		Requests:      c.requests.Load(),
		Retries:       c.retries.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesReceived.Load(),
	}
}

// backoff sleeps the full-jitter exponential delay for attempt, honoring
// a Retry-After hint (capped so a generous server hint cannot stall the
// save path for long).
func (c *Client) backoff(attempt int, hdr http.Header) {
	d := retryBase << attempt
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil {
		d = max(d, time.Duration(secs)*time.Second)
	}
	d = min(d, 2*time.Second)
	c.clock.Sleep(time.Duration(rand.Int63n(int64(d) + 1)))
}

// wireError maps an error response onto backend error semantics. 404 (or
// a not_found code) reconstructs storage.ErrNotFound for key so
// errors.Is works across the wire.
func wireError(op, key string, status int, body []byte) error {
	var eb api.ErrorBody
	_ = json.Unmarshal(body, &eb)
	if status == http.StatusNotFound || eb.Code == api.CodeNotFound {
		return fmt.Errorf("%w: %s", storage.ErrNotFound, key)
	}
	msg := eb.Error
	if msg == "" {
		msg = "http " + strconv.Itoa(status) + ": " + strings.TrimSpace(string(body))
	}
	return fmt.Errorf("remote: %s %s: %s", op, key, msg)
}

// escapeKey makes a validated key URL-safe segment by segment, keeping
// the slashes the server's wildcard pattern routes on.
func escapeKey(key string) string {
	segs := strings.Split(key, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// --- object plane (storage.Backend) ---

// Put commits an object under the commit rule: a blind resend after an
// ambiguous failure could double-apply across an interleaved retention
// trim, so the key is read back first.
func (c *Client) Put(key string, data []byte) error {
	return c.PutClass(key, data, storage.ClassDefault)
}

// PutClass implements storage.ClassWriter: Put with the write class sent
// as a header, under the same commit rule.
func (c *Client) PutClass(key string, data []byte, class storage.WriteClass) error {
	if err := storage.ValidateKey(key); err != nil {
		return err
	}
	_, _, err := c.call(req{rule: commit, op: "put", key: key, method: http.MethodPut, path: api.PathObjects + escapeKey(key), body: data, class: class}, nil)
	return err
}

// Get implements storage.Backend.
func (c *Client) Get(key string) ([]byte, error) {
	return c.getObject("get", key, nil)
}

// GetRange implements storage.RangeReader.
func (c *Client) GetRange(key string, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("remote: invalid range off=%d n=%d", off, n)
	}
	return c.getObject("get-range", key, url.Values{"off": {strconv.FormatInt(off, 10)}, "n": {strconv.FormatInt(n, 10)}})
}

// getObject GETs key's object, or the window query selects, on a wire
// read slot.
func (c *Client) getObject(op, key string, query url.Values) ([]byte, error) {
	if err := storage.ValidateKey(key); err != nil {
		return nil, err
	}
	release := c.acquireRead()
	defer release()
	_, body, err := c.call(req{op: op, key: key, method: http.MethodGet, path: api.PathObjects + escapeKey(key), query: query}, nil)
	return body, err
}

// GetBatch implements storage.BatchReader: POSTs that stream the objects
// back in order, in maxBatchWindow-sized windows so the server streams
// bounded responses. Repeated keys are not collapsed here: the callers
// pass distinct keys, and the server's batch planner fetches a repeat
// once anyway. If a stream breaks mid-response the already-parsed prefix
// is kept and the remainder falls back to per-key Gets, so a flaky wire
// degrades to more requests, not wrong results.
func (c *Client) GetBatch(keys []string) ([][]byte, []error) {
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	for start := 0; start < len(keys); start += maxBatchWindow {
		end := min(start+maxBatchWindow, len(keys))
		c.batchWindow(keys[start:end], out[start:end], errs[start:end])
	}
	return out, errs
}

// batchWindow fetches one /v1/batch window into out/errs (parallel to
// keys). Each payload is cut in place from the response body, so the
// window's payloads share one allocation and no length prefix can claim
// more bytes than arrived.
func (c *Client) batchWindow(keys []string, out [][]byte, errs []error) {
	reqBody, _ := json.Marshal(api.KeysRequest{Keys: keys})
	release := c.acquireRead()
	_, body, err := c.call(req{op: "batch", method: http.MethodPost, path: api.PathBatch, body: reqBody}, nil)
	release()
	next := 0
	for ; err == nil && next < len(keys); next++ {
		st, payload, rest, ok := api.CutBatchRecord(body)
		if !ok {
			break // truncated stream: finish below, one key at a time
		}
		body = rest
		switch st {
		case api.BatchStatusOK:
			out[next] = payload
		case api.BatchStatusNotFound:
			errs[next] = fmt.Errorf("%w: %s", storage.ErrNotFound, keys[next])
		default:
			errs[next] = fmt.Errorf("remote: batch get %s: %s", keys[next], payload)
		}
	}
	for ; next < len(keys); next++ {
		out[next], errs[next] = c.Get(keys[next])
	}
}

// Stat implements storage.Backend via HEAD: size from Content-Length,
// existence from the status line.
func (c *Client) Stat(key string) (storage.ObjectInfo, error) {
	if err := storage.ValidateKey(key); err != nil {
		return storage.ObjectInfo{}, err
	}
	hdr, _, err := c.call(req{op: "stat", key: key, method: http.MethodHead, path: api.PathObjects + escapeKey(key)}, nil)
	if err != nil {
		return storage.ObjectInfo{}, err
	}
	size, err := strconv.ParseInt(hdr.Get("Content-Length"), 10, 64)
	if err != nil {
		return storage.ObjectInfo{}, fmt.Errorf("remote: stat %s: bad Content-Length %q", key, hdr.Get("Content-Length"))
	}
	return storage.ObjectInfo{Key: key, Size: size}, nil
}

// List implements storage.Backend.
func (c *Client) List(prefix string) ([]string, error) {
	var resp api.ListResponse
	_, _, err := c.call(req{op: "list", key: prefix, method: http.MethodGet, path: api.PathList, query: url.Values{"prefix": {prefix}}}, &resp)
	return resp.Keys, err
}

// Delete implements storage.Backend under the once rule.
func (c *Client) Delete(key string) error {
	if err := storage.ValidateKey(key); err != nil {
		return err
	}
	_, _, err := c.call(req{rule: once, op: "delete", key: key, method: http.MethodDelete, path: api.PathObjects + escapeKey(key)}, nil)
	return err
}

// --- chunk plane (storage.AddressedIngester) ---

// IngestKeyed implements storage.AddressedIngester.
func (c *Client) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return c.IngestKeyedClass(key, addr, data, storage.ClassDefault)
}

// IngestKeyedClass implements storage.KeyedClassIngester: the dedup
// handshake. The address probe rides a coalesced batch round; only misses
// upload, the write class riding the upload leg (the probe leg carries no
// class — a hit stays wherever it already lives). Both legs are
// idempotent and freely retried. Returning ok=true hands the chunk
// store's dedup decision to the server, which sees every tenant's chunks
// — that is the entire point of the protocol. The server's chunk plane
// serves canonical keys only (api.CanonicalChunkAddr); for a chunk store
// mounted anywhere else the answer is ok=false and the caller's generic
// protocol runs over the object plane.
func (c *Client) IngestKeyedClass(key, addr string, data []byte, class storage.WriteClass) (int, bool, error) {
	if err := storage.ValidateKey(key); err != nil {
		return 0, false, err
	}
	if _, canonical := api.CanonicalChunkAddr(key); !canonical {
		return 0, false, nil
	}
	have, err := c.haster.has(key)
	if err != nil || have {
		return 0, true, err
	}
	var resp api.IngestResponse
	_, _, err = c.call(req{op: "ingest", key: key, method: http.MethodPut, path: api.PathChunks + escapeKey(key), body: data, class: class}, &resp)
	return resp.Written, true, err
}

// hasRound is one wire-level /v1/has exchange.
func (c *Client) hasRound(keys []string) ([]bool, error) {
	reqBody, _ := json.Marshal(api.KeysRequest{Keys: keys})
	var resp api.HasResponse
	if _, _, err := c.call(req{op: "has", method: http.MethodPost, path: api.PathHas, body: reqBody}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Have) != len(keys) {
		return nil, fmt.Errorf("remote: has response has %d answers for %d keys", len(resp.Have), len(keys))
	}
	return resp.Have, nil
}

// hasBatcher coalesces concurrent address probes into batched rounds
// without timers: the first caller becomes the leader and keeps sending
// whatever accumulated while the previous round was in flight, so under
// a manager's worker fan-out one save's probes collapse into a few
// requests instead of one per chunk.
type hasBatcher struct {
	send    func(keys []string) ([]bool, error)
	mu      sync.Mutex
	pending []*hasCall
	active  bool
}

type hasCall struct {
	key  string
	have bool
	err  error
	done chan struct{}
}

func (b *hasBatcher) has(key string) (bool, error) {
	call := &hasCall{key: key, done: make(chan struct{})}
	b.mu.Lock()
	b.pending = append(b.pending, call)
	if b.active {
		b.mu.Unlock()
		<-call.done
		return call.have, call.err
	}
	b.active = true
	for len(b.pending) > 0 {
		batch := b.pending
		if len(batch) > maxHasBatch {
			batch, b.pending = batch[:maxHasBatch], batch[maxHasBatch:]
		} else {
			b.pending = nil
		}
		b.mu.Unlock()

		keys := make([]string, len(batch))
		for i, bc := range batch {
			keys[i] = bc.key
		}
		have, err := b.send(keys)
		for i, bc := range batch {
			if err != nil {
				bc.err = err
			} else {
				bc.have = have[i]
			}
			close(bc.done)
		}
		b.mu.Lock()
	}
	b.active = false
	b.mu.Unlock()
	return call.have, call.err
}

// --- service plane ---

// CollectOrphans implements storage.OrphanCollector by delegating GC to
// the server, whose view spans every tenant's manifests, pins, and
// leases. Client-side chunk sweeps would be blind to all of those, which
// is exactly why the interface exists.
func (c *Client) CollectOrphans() (int, int64, bool, error) {
	var resp api.GCResponse
	_, _, err := c.call(req{op: "gc", method: http.MethodPost, path: api.PathGC}, &resp)
	return resp.Removed, resp.Reclaimed, true, err
}

// Jobs lists the job namespaces on the server.
func (c *Client) Jobs() ([]string, error) {
	var resp api.ListResponse
	_, _, err := c.call(req{op: "jobs", method: http.MethodGet, path: api.PathJobs}, &resp)
	return resp.Keys, err
}

// Stats snapshots the server-side counters (the T8 harness reads dedup
// and traffic totals from here).
func (c *Client) Stats() (api.Stats, error) {
	var st api.Stats
	_, _, err := c.call(req{op: "stats", method: http.MethodGet, path: api.PathStats}, &st)
	return st, err
}
