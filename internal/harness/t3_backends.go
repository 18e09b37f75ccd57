package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T3Row is one line of Table 3: cost of persisting the same checkpoint
// stream through each storage backend and pipeline configuration. The
// workload is a deterministic drifting training state (no QPU in the
// loop), so the table isolates the storage pipeline itself: encode, delta,
// chunking, dedup, compression, backend writes.
type T3Row struct {
	Backend    string
	Workers    int
	ChunkKB    int // 0 = monolithic snapshot files
	Snapshots  int
	MeanSave   time.Duration // mean foreground Save latency
	BytesTotal int64         // bytes that reached the backend (dedup-adjusted)
	DedupPct   float64       // percent of chunks skipped (store dedup + clean-chunk reuse)
	Modeled    time.Duration // device-model time (latency-modeled tiers only)
	Recovery   time.Duration // LoadLatestBackendOptions wall time at the end of the run
}

// t3Spec describes one Table 3 contender.
type t3Spec struct {
	name    string
	mk      func() (storage.Backend, *storage.Tier, error)
	workers int
	chunkKB int
}

// t3State builds the drifting checkpoint workload: p parameters with
// Adam-scale optimizer state, a few low-order mantissa bits moving per
// step — the regime where chunk dedup and delta encoding earn their keep.
func t3State(p int) *core.TrainingState {
	st := core.NewTrainingState()
	st.Params = make([]float64, p)
	for i := range st.Params {
		st.Params[i] = float64(i) * 0.137
	}
	st.Optimizer = make([]byte, 16*p+64)
	st.RNG = make([]byte, 200)
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "t3", ProblemFP: "t3", OptimizerName: "adam"}
	return st
}

// RunT3Backends persists steps snapshots of a 2048-parameter training
// state through every backend/pipeline configuration and measures save
// latency, storage traffic, dedup rate, modeled device time and recovery
// latency.
func RunT3Backends(steps int) ([]T3Row, error) {
	if steps < 2 {
		return nil, fmt.Errorf("harness: T3 needs ≥2 steps")
	}
	const chunkKB = 8
	specs := []t3Spec{
		{name: "local", mk: localBackend, workers: 1, chunkKB: 0},
		{name: "local", mk: localBackend, workers: 1, chunkKB: chunkKB},
		{name: "local", mk: localBackend, workers: 4, chunkKB: chunkKB},
		{name: "mem", mk: memBackend(nil), workers: 4, chunkKB: chunkKB},
		{name: "tier:nvme", mk: memBackend(&storage.DeviceNVMe), workers: 4, chunkKB: chunkKB},
		{name: "tier:nfs", mk: memBackend(&storage.DeviceNFS), workers: 4, chunkKB: chunkKB},
		{name: "tier:object", mk: memBackend(&storage.DeviceObject), workers: 4, chunkKB: chunkKB},
	}
	var rows []T3Row
	for _, spec := range specs {
		row, err := runT3Spec(spec, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T3 %s: %w", spec.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// localBackend provisions a throwaway checkpoint directory.
func localBackend() (storage.Backend, *storage.Tier, error) {
	dir, err := os.MkdirTemp("", "qckpt-t3-*")
	if err != nil {
		return nil, nil, err
	}
	b, err := storage.NewLocal(dir)
	return b, nil, err
}

// memBackend provisions an in-memory backend, optionally wrapped in a
// device-model tier.
func memBackend(dev *storage.Device) func() (storage.Backend, *storage.Tier, error) {
	return func() (storage.Backend, *storage.Tier, error) {
		if dev == nil {
			return storage.NewMem(), nil, nil
		}
		t := storage.NewTier(storage.NewMem(), *dev)
		return t, t, nil
	}
}

func runT3Spec(spec t3Spec, steps int) (T3Row, error) {
	b, tier, err := spec.mk()
	if err != nil {
		return T3Row{}, err
	}
	if l, ok := b.(*storage.Local); ok {
		defer os.RemoveAll(l.Root())
	}
	mgr, err := core.NewManager(core.Options{
		Backend:     b,
		Strategy:    core.StrategyDelta,
		AnchorEvery: 16,
		Workers:     spec.workers,
		ChunkBytes:  spec.chunkKB << 10,
	})
	if err != nil {
		return T3Row{}, err
	}
	st := t3State(2048)
	var saveTime time.Duration
	for i := 0; i < steps; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		st.LossHistory = append(st.LossHistory, 1.0/float64(i+1))
		start := time.Now()
		if _, err := mgr.Save(st); err != nil {
			return T3Row{}, err
		}
		saveTime += time.Since(start)
	}
	if err := mgr.Close(); err != nil {
		return T3Row{}, err
	}
	stats := mgr.Stats()
	recStart := time.Now()
	got, _, err := core.LoadLatestBackendOptions(b, nil, core.RestoreOptions{})
	if err != nil {
		return T3Row{}, err
	}
	recovery := time.Since(recStart)
	if !got.Equal(st) {
		return T3Row{}, fmt.Errorf("recovered state diverges from last save")
	}
	row := T3Row{
		Backend:    spec.name,
		Workers:    spec.workers,
		ChunkKB:    spec.chunkKB,
		Snapshots:  stats.Snapshots,
		MeanSave:   saveTime / time.Duration(steps),
		BytesTotal: stats.BytesWritten,
		Recovery:   recovery,
	}
	if stats.Chunks > 0 {
		// Chunks that never had to be written: content-addressed dedup hits
		// plus chunks the incremental engine recognized clean against the
		// retained previous body (PR 4 routes most former dedup hits there).
		row.DedupPct = 100 * float64(stats.DedupHits+stats.CleanChunks) / float64(stats.Chunks)
	}
	if tier != nil {
		row.Modeled = tier.Stats().Modeled
	}
	return row, nil
}

// T3Table renders the rows.
func T3Table(rows []T3Row) *Table {
	t := &Table{
		Title: "Table 3 — Checkpoint pipeline vs storage backend (delta strategy, 2048-param state)",
		Columns: []string{"backend", "workers", "chunk", "snaps", "mean-save",
			"bytes", "dedup%", "modeled-io", "recovery"},
	}
	for _, r := range rows {
		chunk := "mono"
		if r.ChunkKB > 0 {
			chunk = fmt.Sprintf("%dKB", r.ChunkKB)
		}
		modeled := "-"
		if r.Modeled > 0 {
			modeled = r.Modeled.Round(time.Microsecond).String()
		}
		t.Add(r.Backend, r.Workers, chunk, r.Snapshots, r.MeanSave,
			humanBytes(r.BytesTotal), r.DedupPct, modeled, r.Recovery)
	}
	return t
}
