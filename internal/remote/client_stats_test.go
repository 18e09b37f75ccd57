package remote_test

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/remote"
	"repro/internal/storage"
)

// TestClientStatsCountWireTraffic checks the per-client counters: a
// clean save/read sequence shows its payload bytes in both directions,
// a request count, and zero retries — so harnesses account traffic
// without a counting RoundTripper.
func TestClientStatsCountWireTraffic(t *testing.T) {
	url, _ := newStack(t)
	c, err := remote.Dial(url, remote.Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte("twelve bytes")
	if err := c.Put("obj", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("obj")
	if err != nil || string(got) != string(payload) {
		t.Fatalf("read back: %q, %v", got, err)
	}
	st := c.ClientStats()
	// Dial's caps fetch + Put + Get at minimum.
	if st.Requests < 3 {
		t.Errorf("requests = %d, want ≥ 3", st.Requests)
	}
	if st.BytesSent < int64(len(payload)) {
		t.Errorf("bytes sent = %d, want ≥ %d", st.BytesSent, len(payload))
	}
	if st.BytesReceived < int64(len(payload)) {
		t.Errorf("bytes received = %d, want ≥ %d", st.BytesReceived, len(payload))
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d on a clean wire", st.Retries)
	}
}

// TestGetBatchDedupsAndWindows pins the client-side batch shape: a
// request with repeated keys costs one POST and shares the payload, and
// a request wider than one window goes down in ceil(n/window) POSTs —
// all positions still correct.
func TestGetBatchDedupsAndWindows(t *testing.T) {
	url, _ := newStack(t)
	c, err := remote.Dial(url, remote.Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 300 unique keys: more than one 256-key window.
	const n = 300
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("o/%03d", i)
		if err := c.Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}

	before := c.ClientStats()
	dup := []string{keys[5], keys[9], keys[5], keys[5], keys[9]}
	out, errs := c.GetBatch(dup)
	for i, k := range dup {
		if errs[i] != nil || string(out[i]) != k {
			t.Fatalf("dup batch[%d]: %q, %v", i, out[i], errs[i])
		}
	}
	if got := c.ClientStats().Requests - before.Requests; got != 1 {
		t.Errorf("duplicate-key batch cost %d requests, want 1", got)
	}

	before = c.ClientStats()
	out, errs = c.GetBatch(keys)
	for i, k := range keys {
		if errs[i] != nil || string(out[i]) != k {
			t.Fatalf("wide batch[%d]: %q, %v", i, out[i], errs[i])
		}
	}
	if got := c.ClientStats().Requests - before.Requests; got != 2 {
		t.Errorf("%d-key batch cost %d requests, want 2 windows", n, got)
	}

	// Absent keys still come back positionally as ErrNotFound.
	out, errs = c.GetBatch([]string{keys[0], "o/absent", keys[0]})
	if errs[0] != nil || errs[2] != nil || string(out[0]) != keys[0] || string(out[2]) != keys[0] {
		t.Errorf("present positions: %q %v / %q %v", out[0], errs[0], out[2], errs[2])
	}
	if errs[1] == nil {
		t.Errorf("absent key served: %q", out[1])
	}
}

// readGauge is a RoundTripper that tracks how many wire reads (object
// GETs, range GETs and batch POSTs) are in flight together. It holds
// every read at a barrier until want of them have arrived, then lingers
// a moment before letting them all through — time in which an unbounded
// client's remaining readers would pile in past want.
type readGauge struct {
	base http.RoundTripper
	want int

	mu             sync.Mutex
	inflight, peak int
	full           chan struct{}
	once           sync.Once
}

func (g *readGauge) RoundTrip(req *http.Request) (*http.Response, error) {
	read := (req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, api.PathObjects)) ||
		req.URL.Path == api.PathBatch
	if !read {
		return g.base.RoundTrip(req)
	}
	g.mu.Lock()
	g.inflight++
	g.peak = max(g.peak, g.inflight)
	reached := g.inflight >= g.want
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inflight--
		g.mu.Unlock()
	}()
	if reached {
		g.once.Do(func() {
			time.Sleep(50 * time.Millisecond)
			close(g.full)
		})
	}
	select {
	case <-g.full:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("only %d reads in flight after 10s, want %d", g.inflight, g.want)
	}
	return g.base.RoundTrip(req)
}

// TestBoundedReadConcurrency drives four times as many overlapping
// readers as the client has wire read slots: exactly the constant bound
// of them are ever on the wire together, and everything still completes
// correctly (and promptly — a slot leak would deadlock here).
func TestBoundedReadConcurrency(t *testing.T) {
	url, _ := newStack(t)
	gauge := &readGauge{base: http.DefaultTransport, want: remote.MaxConcurrentReads, full: make(chan struct{})}
	c, err := remote.Dial(url, remote.Options{Transport: gauge, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*remote.MaxConcurrentReads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if got, err := c.Get(key); err != nil || len(got) != 1 {
					t.Errorf("get %s: %q, %v", key, got, err)
					return
				}
				if _, errs := c.GetBatch([]string{key, fmt.Sprintf("k%d", i%8)}); errs[0] != nil || errs[1] != nil {
					t.Errorf("batch: %v", errs)
					return
				}
				if got, err := storage.GetRange(c, key, 0, 1); err != nil || len(got) != 1 {
					t.Errorf("range %s: %q, %v", key, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if gauge.peak != remote.MaxConcurrentReads {
		t.Errorf("peak wire reads in flight = %d, want the constant bound %d", gauge.peak, remote.MaxConcurrentReads)
	}
}

// pathLog is a RoundTripper that records every request path it carries.
type pathLog struct {
	mu    sync.Mutex
	paths []string
}

func (p *pathLog) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	p.paths = append(p.paths, req.URL.Path)
	p.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestForeignChunkStoreRidesObjectPlane pins the client half of the chunk
// plane's routing rule: a chunk store mounted anywhere but chunks/ gets
// ok=false from the client's addressed ingest, so ChunkStore.Ingest runs
// its own dedup protocol over the object plane — same bytes stored, a
// re-ingest writes nothing, and the server's chunk plane never hears of
// the key.
func TestForeignChunkStoreRidesObjectPlane(t *testing.T) {
	url, local := newStack(t)
	wire := &pathLog{}
	c, err := remote.Dial(url, remote.Options{Transport: wire, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := storage.NewChunkStore(storage.WithPrefix(c, "ns"))
	data := []byte("a chunk under a foreign mount")
	addr := storage.Hash(data)
	if w, err := cs.Ingest(addr, data, storage.ClassDefault); err != nil || w != len(data) {
		t.Fatalf("first ingest wrote %d, %v; want %d", w, err, len(data))
	}
	if w, err := cs.Ingest(addr, data, storage.ClassDefault); err != nil || w != 0 {
		t.Fatalf("second ingest wrote %d, %v; want a dedup hit", w, err)
	}
	if got, err := local.GetObject("ns/" + addr[:2] + "/" + addr); err != nil || string(got) != string(data) {
		t.Fatalf("server holds %q, %v", got, err)
	}
	for _, p := range wire.paths {
		if p == api.PathHas || strings.HasPrefix(p, api.PathChunks) {
			t.Errorf("foreign chunk reached the chunk plane: %s", p)
		}
	}
	if st := local.Stats(); st.HasQueries != 0 || st.ChunksIngested != 0 {
		t.Errorf("server chunk-plane counters moved: %+v", st)
	}
}
