package remote_test

import (
	"net/http/httptest"
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
