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
// Retries follow the idempotency table of DESIGN.md §11: reads, listings,
// has-probes and chunk uploads are retried with jittered exponential
// backoff (honoring Retry-After on 429); an object commit (Put) is never
// blindly resent — after an ambiguous transport failure the client reads
// the key back and only re-sends when the stored bytes don't match.
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
	// Retries is the attempt budget for idempotent requests after the
	// first (0 selects DefaultRetries; negative disables retry).
	Retries int
	// RetryBase is the first backoff delay, doubled per attempt with full
	// jitter (0 selects DefaultRetryBase).
	RetryBase time.Duration
}

const (
	// DefaultRetries is the idempotent-request retry budget.
	DefaultRetries = 4
	// DefaultRetryBase is the initial backoff step.
	DefaultRetryBase = 50 * time.Millisecond
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
	if opt.Retries == 0 {
		opt.Retries = DefaultRetries
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = DefaultRetryBase
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
		readSlots: make(chan struct{}, maxConcurrentReads),
	}
	c.haster = &hasBatcher{send: c.hasRound}
	status, _, body, err := c.doIdem(http.MethodGet, api.PathCaps, nil, nil, storage.ClassDefault)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", baseURL, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("remote: dial %s: %s", baseURL, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &c.caps); err != nil {
		return nil, fmt.Errorf("remote: %s does not speak the qckpt protocol: %w", baseURL, err)
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

// --- single attempt and retry machinery ---

// roundTrip performs one request and returns the status, headers, and the
// fully read body. A non-nil error means the exchange itself failed —
// the server may or may not have applied the request. A write class other
// than ClassDefault rides as a header, so the server's placement policy
// sees remote writes with the same fidelity as local ones.
func (c *Client) roundTrip(method, pth string, query url.Values, body []byte, class storage.WriteClass) (int, http.Header, []byte, error) {
	u := c.base + pth
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set(api.TenantHeader, c.opt.Tenant)
	if class != storage.ClassDefault {
		req.Header.Set(api.ClassHeader, class.String())
	}
	c.requests.Add(1)
	c.bytesSent.Add(int64(len(body)))
	resp, err := c.hc.Do(req)
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

// retryable reports whether a clean HTTP status is worth another attempt
// of an idempotent request.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusInternalServerError:
		return true
	}
	return false
}

// backoff sleeps the full-jitter exponential delay for attempt, honoring
// a Retry-After hint (capped so a generous server hint cannot stall the
// save path for long).
func (c *Client) backoff(attempt int, hdr http.Header) {
	d := c.opt.RetryBase << attempt
	if hdr != nil {
		if s := hdr.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				hint := time.Duration(secs) * time.Second
				if hint > d {
					d = hint
				}
			}
		}
	}
	if max := 2 * time.Second; d > max {
		d = max
	}
	time.Sleep(time.Duration(rand.Int63n(int64(d) + 1)))
}

// doIdem performs an idempotent request with retries: transport errors
// and retryable statuses are re-attempted, anything else is returned for
// the caller to map.
func (c *Client) doIdem(method, pth string, query url.Values, body []byte, class storage.WriteClass) (int, http.Header, []byte, error) {
	var (
		status    int
		hdr       http.Header
		data      []byte
		err       error
		lastRetry http.Header
	)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		status, hdr, data, err = c.roundTrip(method, pth, query, body, class)
		if err == nil && !retryable(status) {
			return status, hdr, data, nil
		}
		if err == nil {
			lastRetry = hdr
		}
		if attempt >= c.opt.Retries {
			if err == nil {
				return status, hdr, data, nil
			}
			return 0, nil, nil, err
		}
		c.backoff(attempt, lastRetry)
	}
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

// Put commits an object. Commits are not idempotent, so the retry
// protocol differs from every other verb: a clean error response means
// the commit was not applied and is simply returned; a transport error is
// ambiguous, so the client reads the key back and re-sends only when the
// stored bytes don't match what it meant to write.
func (c *Client) Put(key string, data []byte) error {
	return c.PutClass(key, data, storage.ClassDefault)
}

// PutClass implements storage.ClassWriter: Put with the write class sent
// as a header, same verify-then-retry protocol.
func (c *Client) PutClass(key string, data []byte, class storage.WriteClass) error {
	if err := storage.ValidateKey(key); err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		status, hdr, body, err := c.roundTrip(http.MethodPut, api.PathObjects+escapeKey(key), nil, data, class)
		if err == nil {
			switch {
			case status == http.StatusNoContent || status == http.StatusOK:
				return nil
			case status == http.StatusTooManyRequests:
				// Refused at admission: known not applied, safe to retry.
				lastErr = wireError("put", key, status, body)
				c.backoff(attempt, hdr)
				continue
			default:
				// A clean error response: known not applied.
				return wireError("put", key, status, body)
			}
		}
		lastErr = err
		// Ambiguous failure. Read back before even thinking of re-sending.
		if got, gerr := c.Get(key); gerr == nil && bytes.Equal(got, data) {
			return nil
		}
		if attempt < c.opt.Retries {
			c.backoff(attempt, nil)
		}
	}
	return fmt.Errorf("remote: put %s: %w", key, lastErr)
}

// Get implements storage.Backend.
func (c *Client) Get(key string) ([]byte, error) {
	if err := storage.ValidateKey(key); err != nil {
		return nil, err
	}
	release := c.acquireRead()
	defer release()
	status, _, body, err := c.doIdem(http.MethodGet, api.PathObjects+escapeKey(key), nil, nil, storage.ClassDefault)
	if err != nil {
		return nil, fmt.Errorf("remote: get %s: %w", key, err)
	}
	if status != http.StatusOK {
		return nil, wireError("get", key, status, body)
	}
	return body, nil
}

// GetRange implements storage.RangeReader.
func (c *Client) GetRange(key string, off, n int64) ([]byte, error) {
	if err := storage.ValidateKey(key); err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("remote: invalid range off=%d n=%d", off, n)
	}
	q := url.Values{}
	q.Set("off", strconv.FormatInt(off, 10))
	q.Set("n", strconv.FormatInt(n, 10))
	release := c.acquireRead()
	defer release()
	status, _, body, err := c.doIdem(http.MethodGet, api.PathObjects+escapeKey(key), q, nil, storage.ClassDefault)
	if err != nil {
		return nil, fmt.Errorf("remote: get-range %s: %w", key, err)
	}
	if status != http.StatusOK {
		return nil, wireError("get-range", key, status, body)
	}
	return body, nil
}

// GetBatch implements storage.BatchReader: POSTs that stream the objects
// back in order. Repeated keys are requested once and the payload shared
// across their positions (a delta chain references shared chunks many
// times), and long requests go down in maxBatchWindow-sized windows so
// the server streams bounded responses. If a stream breaks mid-response
// the already-parsed prefix is kept and the remainder falls back to
// per-key Gets, so a flaky wire degrades to more requests, not wrong
// results.
func (c *Client) GetBatch(keys []string) ([][]byte, []error) {
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return out, errs
	}
	uniq := keys
	idx := make([]int, len(keys))
	seen := make(map[string]int, len(keys))
	for i, k := range keys {
		j, ok := seen[k]
		if !ok {
			j = len(seen)
			seen[k] = j
		}
		idx[i] = j
	}
	if len(seen) < len(keys) {
		uniq = make([]string, len(seen))
		for k, j := range seen {
			uniq[j] = k
		}
	}
	uniqOut := make([][]byte, len(uniq))
	uniqErrs := make([]error, len(uniq))
	for start := 0; start < len(uniq); start += maxBatchWindow {
		end := start + maxBatchWindow
		if end > len(uniq) {
			end = len(uniq)
		}
		c.batchWindow(uniq[start:end], uniqOut[start:end], uniqErrs[start:end])
	}
	for i, j := range idx {
		out[i], errs[i] = uniqOut[j], uniqErrs[j]
	}
	return out, errs
}

// batchWindow fetches one /v1/batch window into out/errs (parallel to
// keys).
func (c *Client) batchWindow(keys []string, out [][]byte, errs []error) {
	reqBody, _ := json.Marshal(api.KeysRequest{Keys: keys})
	release := c.acquireRead()
	status, _, body, err := c.doIdem(http.MethodPost, api.PathBatch, nil, reqBody, storage.ClassDefault)
	release()
	next := 0
	if err == nil && status == http.StatusOK {
		r := bytes.NewReader(body)
		for next < len(keys) {
			st, payload, rerr := api.ReadBatchRecord(r)
			if rerr != nil {
				break // truncated stream: finish below, one key at a time
			}
			switch st {
			case api.BatchStatusOK:
				out[next] = payload
			case api.BatchStatusNotFound:
				errs[next] = fmt.Errorf("%w: %s", storage.ErrNotFound, keys[next])
			default:
				errs[next] = fmt.Errorf("remote: batch get %s: %s", keys[next], payload)
			}
			next++
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
	status, hdr, body, err := c.doIdem(http.MethodHead, api.PathObjects+escapeKey(key), nil, nil, storage.ClassDefault)
	if err != nil {
		return storage.ObjectInfo{}, fmt.Errorf("remote: stat %s: %w", key, err)
	}
	if status != http.StatusOK {
		return storage.ObjectInfo{}, wireError("stat", key, status, body)
	}
	size, err := strconv.ParseInt(hdr.Get("Content-Length"), 10, 64)
	if err != nil {
		return storage.ObjectInfo{}, fmt.Errorf("remote: stat %s: bad Content-Length %q", key, hdr.Get("Content-Length"))
	}
	return storage.ObjectInfo{Key: key, Size: size}, nil
}

// List implements storage.Backend.
func (c *Client) List(prefix string) ([]string, error) {
	q := url.Values{}
	q.Set("prefix", prefix)
	status, _, body, err := c.doIdem(http.MethodGet, api.PathList, q, nil, storage.ClassDefault)
	if err != nil {
		return nil, fmt.Errorf("remote: list %q: %w", prefix, err)
	}
	if status != http.StatusOK {
		return nil, wireError("list", prefix, status, body)
	}
	var resp api.ListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("remote: list %q: %w", prefix, err)
	}
	return resp.Keys, nil
}

// Delete implements storage.Backend. Deletes are sent once: a blind
// retry of a delete that already landed would report a spurious
// ErrNotFound, and nothing in the save or GC path needs delete-at-all-
// costs semantics.
func (c *Client) Delete(key string) error {
	if err := storage.ValidateKey(key); err != nil {
		return err
	}
	status, _, body, err := c.roundTrip(http.MethodDelete, api.PathObjects+escapeKey(key), nil, nil, storage.ClassDefault)
	if err != nil {
		return fmt.Errorf("remote: delete %s: %w", key, err)
	}
	if status != http.StatusNoContent && status != http.StatusOK {
		return wireError("delete", key, status, body)
	}
	return nil
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
	if err != nil {
		return 0, true, fmt.Errorf("remote: has %s: %w", key, err)
	}
	if have {
		return 0, true, nil
	}
	status, _, body, err := c.doIdem(http.MethodPut, api.PathChunks+escapeKey(key), nil, data, class)
	if err != nil {
		return 0, true, fmt.Errorf("remote: ingest %s: %w", key, err)
	}
	if status != http.StatusOK {
		return 0, true, wireError("ingest", key, status, body)
	}
	var resp api.IngestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, true, fmt.Errorf("remote: ingest %s: %w", key, err)
	}
	return resp.Written, true, nil
}

// hasRound is one wire-level /v1/has exchange.
func (c *Client) hasRound(keys []string) ([]bool, error) {
	reqBody, _ := json.Marshal(api.KeysRequest{Keys: keys})
	status, _, body, err := c.doIdem(http.MethodPost, api.PathHas, nil, reqBody, storage.ClassDefault)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, wireError("has", strconv.Itoa(len(keys))+" keys", status, body)
	}
	var resp api.HasResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Have) != len(keys) {
		return nil, fmt.Errorf("has response has %d answers for %d keys", len(resp.Have), len(keys))
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
	status, _, body, err := c.doIdem(http.MethodPost, api.PathGC, nil, nil, storage.ClassDefault)
	if err != nil {
		return 0, 0, true, fmt.Errorf("remote: gc: %w", err)
	}
	if status != http.StatusOK {
		return 0, 0, true, wireError("gc", "", status, body)
	}
	var resp api.GCResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, true, fmt.Errorf("remote: gc: %w", err)
	}
	return resp.Removed, resp.Reclaimed, true, nil
}

// Jobs lists the job namespaces on the server.
func (c *Client) Jobs() ([]string, error) {
	status, _, body, err := c.doIdem(http.MethodGet, api.PathJobs, nil, nil, storage.ClassDefault)
	if err != nil {
		return nil, fmt.Errorf("remote: jobs: %w", err)
	}
	if status != http.StatusOK {
		return nil, wireError("jobs", "", status, body)
	}
	var resp api.ListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("remote: jobs: %w", err)
	}
	return resp.Keys, nil
}

// Stats snapshots the server-side counters (the T8 harness reads dedup
// and traffic totals from here).
func (c *Client) Stats() (api.Stats, error) {
	status, _, body, err := c.doIdem(http.MethodGet, api.PathStats, nil, nil, storage.ClassDefault)
	if err != nil {
		return api.Stats{}, fmt.Errorf("remote: stats: %w", err)
	}
	if status != http.StatusOK {
		return api.Stats{}, wireError("stats", "", status, body)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return api.Stats{}, fmt.Errorf("remote: stats: %w", err)
	}
	return st, nil
}
