package remote_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/remote"
)

// scaledClock is a client's backoff clock that sleeps a fiftieth of each
// delay: concurrent clients' retries keep real spacing (a 429 clears only
// as its tenant's writes in flight finish), at test speed. A client only
// sleeps on its clock, so Now and After are the embedded nil Clock's.
type scaledClock struct{ clock.Clock }

func (scaledClock) Sleep(d time.Duration) { time.Sleep(d / 50) }

// TestConcurrentJobsShareChunksOverTheWire is the tentpole end-to-end
// scenario: four Managers on four distinct jobs hammer one in-process
// server concurrently. Their parameter blocks mostly overlap, so the
// address-first handshake must collapse the shared chunks to a single
// upload across tenants; every job must still restore bitwise. Run
// under -race, this also exercises the client's batching and pooling
// paths concurrently.
func TestConcurrentJobsShareChunksOverTheWire(t *testing.T) {
	url, _ := newStack(t)

	const (
		jobs      = 4
		params    = 8192
		perJob    = 512 // params unique to each job; the rest are shared
		chunkSize = core.MinChunkBytes
	)
	base := make([]float64, params)
	rng := rand.New(rand.NewSource(7))
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	states := make([]*core.TrainingState, jobs)
	for j := 0; j < jobs; j++ {
		st := core.NewTrainingState()
		st.Params = append([]float64(nil), base...)
		for i := 0; i < perJob; i++ {
			st.Params[i] = float64(j+1) * 1e6 // distinct leading block per job
		}
		st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: fmt.Sprintf("job-%d", j), ProblemFP: "shared", OptimizerName: "adam"}
		states[j] = st
	}

	var wg sync.WaitGroup
	saveErrs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			client, err := remote.Dial(url, remote.Options{Tenant: fmt.Sprintf("tenant-%d", j)})
			if err != nil {
				saveErrs[j] = err
				return
			}
			defer client.Close()
			remote.SetClock(client, scaledClock{})
			view, err := core.JobBackend(client, fmt.Sprintf("job-%d", j))
			if err != nil {
				saveErrs[j] = err
				return
			}
			m, err := core.NewManager(core.Options{
				Backend:    view,
				Strategy:   core.StrategyFull,
				ChunkBytes: chunkSize,
				Workers:    4,
			})
			if err != nil {
				saveErrs[j] = err
				return
			}
			if _, err := m.Save(states[j]); err != nil {
				saveErrs[j] = err
				return
			}
			saveErrs[j] = m.Close()
		}(j)
	}
	wg.Wait()
	for j, err := range saveErrs {
		if err != nil {
			t.Fatalf("job %d save: %v", j, err)
		}
	}

	// A straggler joins after the storm: its shared chunks are already
	// resident, so its address-first has-round must hit them — the
	// deterministic cross-tenant dedup check (the concurrent saves above
	// may race their has-rounds past each other's uploads).
	late := core.NewTrainingState()
	late.Params = append([]float64(nil), base...)
	late.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "late", ProblemFP: "shared", OptimizerName: "adam"}
	{
		client, err := remote.Dial(url, remote.Options{Tenant: "tenant-late"})
		if err != nil {
			t.Fatal(err)
		}
		remote.SetClock(client, scaledClock{})
		view, err := core.JobBackend(client, "job-late")
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewManager(core.Options{
			Backend: view, Strategy: core.StrategyFull, ChunkBytes: chunkSize, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Save(late); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		client.Close()
	}

	// Every job restores bitwise through a fresh client.
	client, err := remote.Dial(url, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for j := 0; j < jobs; j++ {
		view, err := core.JobBackend(client, fmt.Sprintf("job-%d", j))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{})
		if err != nil {
			t.Fatalf("job %d restore: %v", j, err)
		}
		if got.Meta.CircuitFP != fmt.Sprintf("job-%d", j) {
			t.Fatalf("job %d restored wrong snapshot: %q", j, got.Meta.CircuitFP)
		}
		for i := range states[j].Params {
			if got.Params[i] != states[j].Params[i] {
				t.Fatalf("job %d not bitwise at param %d", j, i)
			}
		}
	}

	// The wire saw the shared chunks once. Raw workload is jobs×params
	// float64s; the server must have written far less than that, and the
	// has-round must report cross-tenant hits.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.HasHits == 0 {
		t.Error("no dedup hits across jobs sharing most of their parameters")
	}
	rawBytes := int64(jobs * params * 8)
	if st.ChunkBytesWritten >= rawBytes/2 {
		t.Errorf("chunk bytes written %d, want far below raw %d", st.ChunkBytesWritten, rawBytes)
	}
	jobList, err := client.Jobs()
	if err != nil || len(jobList) != jobs+1 {
		t.Errorf("Jobs() = %v, %v", jobList, err)
	}
}
