package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/qpu"
	"repro/internal/storage"
	"repro/internal/train"
)

// F3Row is one point of the overhead figure: foreground checkpoint cost as
// a fraction of training time, for one (interval, sync/async) combination,
// with projections onto storage tiers.
type F3Row struct {
	IntervalSteps  int
	Async          bool
	Snapshots      int
	StepVirtual    time.Duration // mean virtual QPU time per optimizer step
	ForegroundReal time.Duration // measured foreground checkpoint time per step
	OverheadLocal  float64       // measured foreground / (virtual step time)
	OverheadNFS    float64       // modeled with the NFS device
	OverheadObject float64       // modeled with the object-store device
	MeanSnapshotB  int64
}

// RunF3Overhead trains a fixed VQE workload with realistic QPU latencies
// and sweeps the checkpoint interval under sync and async writers. The
// overhead metric is foreground checkpoint time divided by QPU step time —
// the paper's core "checkpointing is (almost) free" claim.
func RunF3Overhead(steps int, intervals []int) ([]F3Row, error) {
	if steps < 2 {
		return nil, fmt.Errorf("harness: F3 needs ≥2 steps")
	}
	qcfg := qpu.Config{
		QueueDelay:  5 * time.Second,
		ShotTime:    time.Millisecond,
		GateLatency: time.Microsecond,
	}
	var rows []F3Row
	for _, interval := range intervals {
		for _, async := range []bool{false, true} {
			dir, err := os.MkdirTemp("", "qckpt-f3-*")
			if err != nil {
				return nil, err
			}
			store, err := core.DirBackend(dir)
			if err != nil {
				return nil, err
			}
			mgr, err := core.NewManager(core.Options{
				Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 16, Async: async,
			})
			if err != nil {
				return nil, err
			}
			cfg, err := vqeTrainConfig(4, 2, 64, 333, qcfg)
			if err != nil {
				return nil, err
			}
			cfg.Manager = mgr
			cfg.Policy = core.Policy{EverySteps: interval}
			tr, err := train.New(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := tr.Run(steps); err != nil {
				return nil, err
			}
			if err := mgr.Barrier(); err != nil {
				return nil, err
			}
			stats := mgr.Stats()
			mgr.Close()
			os.RemoveAll(dir)

			stepVirtual := tr.Backend().Clock() / time.Duration(steps)
			fgPerStep := stats.Cost.Stall(async) / time.Duration(steps)
			// What a save costs the trainer before its persist, which an
			// async save hands off and a sync one pays on the device.
			capture := stats.Cost.Stall(true) / time.Duration(steps)
			meanB := int64(0)
			if stats.Snapshots > 0 {
				meanB = stats.BytesWritten / int64(stats.Snapshots)
			}
			// Device projections: foreground write cost per step if the
			// checkpoint went to a slower tier synchronously.
			perStepWrites := float64(stats.Snapshots) / float64(steps)
			projection := func(d storage.Device) float64 {
				if async {
					// Async hides the device time entirely as long as it
					// fits inside a step; report the residual encode cost.
					return float64(capture) / float64(stepVirtual)
				}
				cost := time.Duration(perStepWrites * float64(d.WriteCost(int(meanB))))
				return float64(cost+capture) / float64(stepVirtual)
			}
			rows = append(rows, F3Row{
				IntervalSteps:  interval,
				Async:          async,
				Snapshots:      stats.Snapshots,
				StepVirtual:    stepVirtual,
				ForegroundReal: fgPerStep,
				OverheadLocal:  float64(fgPerStep) / float64(stepVirtual),
				OverheadNFS:    projection(storage.DeviceNFS),
				OverheadObject: projection(storage.DeviceObject),
				MeanSnapshotB:  meanB,
			})
		}
	}
	return rows, nil
}

// F3Table renders the rows.
func F3Table(rows []F3Row) *Table {
	t := &Table{
		Title: "Figure 3 — Checkpoint overhead (% of QPU step time) vs interval, sync vs async",
		Columns: []string{"interval", "writer", "snapshots", "step (QPU)",
			"fg/step", "ovh local", "ovh nfs", "ovh object", "mean snap"},
	}
	for _, r := range rows {
		writer := "sync"
		if r.Async {
			writer = "async"
		}
		t.Add(r.IntervalSteps, writer, r.Snapshots, r.StepVirtual, r.ForegroundReal,
			fmt.Sprintf("%.4f%%", r.OverheadLocal*100),
			fmt.Sprintf("%.4f%%", r.OverheadNFS*100),
			fmt.Sprintf("%.4f%%", r.OverheadObject*100),
			humanBytes(r.MeanSnapshotB))
	}
	return t
}
