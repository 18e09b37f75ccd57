package core_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/storage"
)

// ExampleManager shows the basic save/recover round trip: persist a
// training state, lose the process, restore the newest valid snapshot
// bitwise-identically.
func ExampleManager() {
	dir, err := os.MkdirTemp("", "qckpt-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := core.DirBackend(dir)
	if err != nil {
		log.Fatal(err)
	}
	m, err := core.NewManager(core.Options{Backend: store, Strategy: core.StrategyFull})
	if err != nil {
		log.Fatal(err)
	}
	st := core.NewTrainingState()
	st.Step = 7
	st.Params = []float64{0.1, 0.2, 0.3}
	st.Meta.CircuitFP, st.Meta.ProblemFP, st.Meta.OptimizerName = "circ", "prob", "adam"
	if _, err := m.Save(st); err != nil {
		log.Fatal(err)
	}
	if err := m.Close(); err != nil {
		log.Fatal(err)
	}

	// A new process recovers from the directory alone.
	if store, err = core.DirBackend(dir); err != nil {
		log.Fatal(err)
	}
	got, report, err := core.LoadLatestBackendOptions(store, nil, core.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("restored step:", got.Step)
	fmt.Println("chain length:", report.ChainLen)
	fmt.Println("bitwise equal:", got.Equal(st))
	// Output:
	// restored step: 7
	// chain length: 1
	// bitwise equal: true
}

// ExampleManager_chunked runs the concurrent chunked pipeline against an
// in-memory backend: snapshots become small manifests over a
// content-addressed chunk store, written by a pool of workers, and
// consecutive saves of a slowly drifting state deduplicate.
func ExampleManager_chunked() {
	mem := storage.NewMem()
	m, err := core.NewManager(core.Options{
		Backend:    mem,
		Strategy:   core.StrategyDelta,
		Workers:    4,
		ChunkBytes: core.MinChunkBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := core.NewTrainingState()
	st.Params = make([]float64, 4096)
	st.Meta.CircuitFP, st.Meta.ProblemFP, st.Meta.OptimizerName = "circ", "prob", "adam"
	for step := 0; step < 3; step++ {
		st = st.Clone()
		st.Step = uint64(step)
		st.Params[step] += 0.001 // a tiny drift per step
		if _, err := m.Save(st); err != nil {
			log.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		log.Fatal(err)
	}

	got, _, err := core.LoadLatestBackendOptions(mem, nil, core.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stats := m.Stats()
	fmt.Println("restored step:", got.Step)
	fmt.Println("chunks written concurrently:", stats.Chunks > 0)
	fmt.Println("dedup found repeats:", stats.DedupHits > 0)
	// Output:
	// restored step: 2
	// chunks written concurrently: true
	// dedup found repeats: true
}
