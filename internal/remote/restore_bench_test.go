package remote_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/storage"
)

// BenchmarkRestoreChainRemote is core's BenchmarkRestoreChain over the
// wire: the same store — a 2 MiB state in 8 KiB chunks, two 16-link chains
// whose links each dirtied 0.3 % of it — behind server + remote.Client on
// loopback, restored with the end-to-end benchmark's options. requests/op
// and wire-B/op are the client's own counters (ClientStats): the header
// probes, snapshot objects and chunks one restore of the newest chain costs.
func BenchmarkRestoreChainRemote(b *testing.B) {
	const params, links, window = 256 << 10, 16, 768
	mem := storage.NewMem()
	m, err := core.NewManager(core.Options{Backend: mem, Strategy: core.StrategyDelta, AnchorEvery: links, ChunkBytes: 8 << 10, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range sparseChain(13, params, 2*links, window) {
		if _, err := m.Save(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	svc, err := core.NewService(core.ServiceOptions{Backend: mem})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(server.New(api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}), server.Options{}))
	defer ts.Close()
	c, err := remote.Dial(ts.URL, remote.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	opts := core.RestoreOptions{Workers: 2, Prefetch: 4}
	b.SetBytes(8 * params)
	b.ReportAllocs()
	b.ResetTimer()
	before := c.ClientStats()
	for i := 0; i < b.N; i++ {
		got, report, err := core.LoadLatestBackendOptions(c, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if report.ChainLen != links || got.Step != 2*links-1 {
			b.Fatalf("restored step %d over a chain of %d", got.Step, report.ChainLen)
		}
	}
	after := c.ClientStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Requests-before.Requests)/n, "requests/op")
	b.ReportMetric(float64(after.BytesSent+after.BytesReceived-before.BytesSent-before.BytesReceived)/n, "wire-B/op")
}

// wireLog is a RoundTripper that counts requests by method and path and
// keeps the key list of every /v1/batch request.
type wireLog struct {
	mu      sync.Mutex
	count   map[string]int
	batches [][]string
}

func (w *wireLog) RoundTrip(req *http.Request) (*http.Response, error) {
	var keys api.KeysRequest
	if req.URL.Path == api.PathBatch {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		if err := json.Unmarshal(body, &keys); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	w.mu.Lock()
	w.count[req.Method+" "+req.URL.Path]++
	if req.URL.Path == api.PathBatch {
		w.batches = append(w.batches, keys.Keys)
	}
	w.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestRemoteRestoreBatchesTheAnchor: a two-worker restore of a 16-link chain
// over the wire fetches its anchor's chunks in ⌈distinct/256⌉ /v1/batch
// requests, the one batch of its warm in the client's windows, and makes no
// chunk GET at all; the restore is bitwise.
func TestRemoteRestoreBatchesTheAnchor(t *testing.T) {
	const params, links, window = 256 << 10, 16, 768
	mem := storage.NewMem()
	m, err := core.NewManager(core.Options{Backend: mem, Strategy: core.StrategyDelta, AnchorEvery: links, ChunkBytes: 8 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := sparseChain(13, params, 2*links, window)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The anchor's distinct chunks are the chunk keys reading it whole gets.
	anchor := map[string]bool{}
	var mu sync.Mutex
	seen := storage.Observe(mem, func(op storage.Op) (int64, error) {
		if _, ok := storage.ChunkKeyAddr(op.Key); ok && op.Kind == storage.OpGet && !op.After {
			mu.Lock()
			anchor[op.Key] = true
			mu.Unlock()
		}
		return 0, nil
	})
	if _, err := core.InspectSnapshot(seen, fmt.Sprintf("ckpt-%012d-full.qckpt", links)); err != nil {
		t.Fatal(err)
	}

	svc, err := core.NewService(core.ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(server.New(api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}), server.Options{}))
	defer ts.Close()
	wire := &wireLog{count: map[string]int{}}
	c, err := remote.Dial(ts.URL, remote.Options{Transport: wire})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, report, err := core.LoadLatestBackendOptions(c, nil, core.RestoreOptions{Workers: 2, Prefetch: 4})
	if err != nil || report.ChainLen != links || !got.Equal(states[len(states)-1]) {
		t.Fatalf("restore over a chain of %d: %v", report.ChainLen, err)
	}

	carried, batches := map[string]bool{}, 0
	for _, keys := range wire.batches {
		has := false
		for _, k := range keys {
			if anchor[k] {
				carried[k], has = true, true
			}
		}
		if has {
			batches++
		}
	}
	if want := (len(anchor) + 255) / 256; batches != want || len(carried) != len(anchor) {
		t.Errorf("the anchor's %d distinct chunks came in %d /v1/batch requests (%d of them batched), want %d", len(anchor), batches, len(carried), want)
	}
	gets := 0
	for req, n := range wire.count {
		if key, ok := strings.CutPrefix(req, "GET "+api.PathObjects); ok {
			if _, chunk := storage.ChunkKeyAddr(key); chunk {
				gets += n
			}
		}
	}
	if gets != 0 {
		t.Errorf("%d chunk GETs, want none", gets)
	}
}

// sparseChain yields n states of params random float64 parameters, each a
// window-parameter sub-step away from the one before (core's sparseStates).
func sparseChain(seed uint64, params, n, window int) []*core.TrainingState {
	r := rng.New(seed)
	s := core.NewTrainingState()
	s.Params = make([]float64, params)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	out := make([]*core.TrainingState, n)
	for i := range out {
		s = s.Clone()
		s.Step = uint64(i)
		for j := 0; j < window; j++ {
			s.Params[(i*window+j)%params] += 1e-3 * r.NormFloat64()
		}
		out[i] = s
	}
	return out
}
