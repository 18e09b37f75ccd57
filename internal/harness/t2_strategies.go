package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/qpu"
	"repro/internal/train"
)

// StrategyRow is one line of Table 2: end-to-end cost and recovery quality
// of one checkpoint strategy over a fixed training run.
type StrategyRow struct {
	Name           string
	Snapshots      int
	TotalBytes     int64
	MeanSnapshotB  int64
	EncodeTime     time.Duration // state capture + canonical encode (foreground)
	WriteTime      time.Duration // compression + I/O (foreground for sync, background for async)
	RecoveryTime   time.Duration // LoadLatestBackendOptions wall time after the run
	RecoveredStep  uint64
	BitwiseResume  bool          // restored state continues identically to uninterrupted
	ForegroundTime time.Duration // time the trainer was blocked on checkpointing
}

// strategySpec describes one Table 2 contender.
type strategySpec struct {
	name    string
	options core.Options
	policy  core.Policy
}

// RunT2Strategies trains the same VQE workload under each checkpoint
// strategy (full-sync, delta-sync, delta-async) plus a no-checkpoint
// control, and measures bytes, foreground time, recovery latency and
// resume fidelity.
func RunT2Strategies(steps int) ([]StrategyRow, error) {
	if steps < 4 {
		return nil, fmt.Errorf("harness: T2 needs ≥4 steps")
	}
	specs := []strategySpec{
		{name: "full-sync", options: core.Options{Strategy: core.StrategyFull}, policy: core.Policy{EverySteps: 1}},
		{name: "delta-sync", options: core.Options{Strategy: core.StrategyDelta, AnchorEvery: 16}, policy: core.Policy{EverySteps: 1}},
		{name: "delta-async", options: core.Options{Strategy: core.StrategyDelta, AnchorEvery: 16, Async: true}, policy: core.Policy{EverySteps: 1}},
		{name: "delta-substep", options: core.Options{Strategy: core.StrategyDelta, AnchorEvery: 32}, policy: core.Policy{EveryUnits: 8}},
	}
	var rows []StrategyRow

	// Reference: uninterrupted run without checkpointing, for the bitwise
	// comparison target.
	refCfg, err := vqeTrainConfig(4, 2, 64, 77, qpu.Config{})
	if err != nil {
		return nil, err
	}
	ref, err := train.New(refCfg)
	if err != nil {
		return nil, err
	}
	if _, err := ref.Run(steps); err != nil {
		return nil, err
	}

	for _, spec := range specs {
		dir, err := os.MkdirTemp("", "qckpt-t2-*")
		if err != nil {
			return nil, err
		}
		opts := spec.options
		opts.Dir = dir
		mgr, err := core.NewManager(opts)
		if err != nil {
			return nil, err
		}
		cfg := refCfg
		cfg.Manager = mgr
		cfg.Policy = spec.policy
		tr, err := train.New(cfg)
		if err != nil {
			return nil, err
		}
		// Run to steps-? : capture the foreground time around the run.
		if _, err := tr.Run(steps); err != nil {
			return nil, err
		}
		if err := mgr.Barrier(); err != nil {
			return nil, err
		}
		stats := mgr.Stats()
		if err := mgr.Close(); err != nil {
			return nil, err
		}

		// Recovery measurement.
		live := liveMetaFor(cfg)
		store, err := core.DirBackend(dir)
		if err != nil {
			return nil, err
		}
		recStart := time.Now()
		st, _, err := core.LoadLatestBackendOptions(store, &live, core.RestoreOptions{})
		recDur := time.Since(recStart)
		if err != nil {
			return nil, fmt.Errorf("harness: %s recovery: %w", spec.name, err)
		}

		// Bitwise resume check: restore into a fresh trainer, finish to
		// `steps` if mid-run, then compare against the reference.
		cfg2 := refCfg
		tr2, err := train.New(cfg2)
		if err != nil {
			return nil, err
		}
		if err := tr2.Restore(st); err != nil {
			return nil, err
		}
		if _, err := tr2.Run(steps); err != nil {
			return nil, err
		}
		bitwise := true
		for i := range ref.Theta() {
			if ref.Theta()[i] != tr2.Theta()[i] {
				bitwise = false
				break
			}
		}

		fg := stats.EncodeTime
		if !opts.Async {
			fg += stats.WriteTime
		}
		mean := int64(0)
		if stats.Snapshots > 0 {
			mean = stats.BytesWritten / int64(stats.Snapshots)
		}
		rows = append(rows, StrategyRow{
			Name:           spec.name,
			Snapshots:      stats.Snapshots,
			TotalBytes:     stats.BytesWritten,
			MeanSnapshotB:  mean,
			EncodeTime:     stats.EncodeTime,
			WriteTime:      stats.WriteTime,
			RecoveryTime:   recDur,
			RecoveredStep:  st.Step,
			BitwiseResume:  bitwise,
			ForegroundTime: fg,
		})
		os.RemoveAll(dir)
	}
	return rows, nil
}

// liveMetaFor builds the expected checkpoint metadata for a config.
func liveMetaFor(cfg train.Config) core.Meta { return cfg.Meta() }

// T2Table renders the rows.
func T2Table(rows []StrategyRow) *Table {
	t := &Table{
		Title: "Table 2 — Checkpoint strategy comparison (VQE n=4 L=2, checkpoint per step / per 8 units)",
		Columns: []string{"strategy", "snapshots", "total", "mean/snap",
			"fg-time", "write-time", "recovery", "rec-step", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Name, r.Snapshots, humanBytes(r.TotalBytes), humanBytes(r.MeanSnapshotB),
			r.ForegroundTime, r.WriteTime, r.RecoveryTime, r.RecoveredStep, r.BitwiseResume)
	}
	return t
}
