package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/train"
)

// A1Row is one anchor-period point of the delta-chain ablation: bytes
// written vs recovery latency (longer chains are smaller but slower to
// replay).
type A1Row struct {
	AnchorEvery  int
	Snapshots    int
	TotalBytes   int64
	MeanRecovery time.Duration
	ChainLen     int // chain length of the newest snapshot at the end
}

// RunA1AnchorSweep trains the same workload with per-step delta
// checkpointing at several anchor periods and measures the write-volume /
// recovery-latency tradeoff.
func RunA1AnchorSweep(steps int, anchors []int) ([]A1Row, error) {
	if steps < 2 {
		return nil, fmt.Errorf("harness: A1 needs ≥2 steps")
	}
	var rows []A1Row
	for _, anchor := range anchors {
		dir, err := os.MkdirTemp("", "qckpt-a1-*")
		if err != nil {
			return nil, err
		}
		mgr, err := core.NewManager(core.Options{
			Dir: dir, Strategy: core.StrategyDelta, AnchorEvery: anchor,
		})
		if err != nil {
			return nil, err
		}
		cfg, err := vqeTrainConfig(4, 2, 64, 1212, qpu.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Manager = mgr
		cfg.Policy = core.Policy{EverySteps: 1}
		tr, err := train.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := tr.Run(steps); err != nil {
			return nil, err
		}
		stats := mgr.Stats()
		mgr.Close()

		// Average recovery latency over several loads.
		const loads = 5
		var recTotal time.Duration
		var chain int
		live := cfg.Meta()
		store, err := core.DirBackend(dir)
		if err != nil {
			return nil, err
		}
		for i := 0; i < loads; i++ {
			start := time.Now()
			_, report, err := core.LoadLatestBackendOptions(store, &live, core.RestoreOptions{})
			recTotal += time.Since(start)
			if err != nil {
				return nil, err
			}
			chain = report.ChainLen
		}
		os.RemoveAll(dir)
		rows = append(rows, A1Row{
			AnchorEvery:  anchor,
			Snapshots:    stats.Snapshots,
			TotalBytes:   stats.BytesWritten,
			MeanRecovery: recTotal / loads,
			ChainLen:     chain,
		})
	}
	return rows, nil
}

// A1Table renders the rows.
func A1Table(rows []A1Row) *Table {
	t := &Table{
		Title:   "Ablation A1 — Delta anchor period: write volume vs recovery latency",
		Columns: []string{"anchor-every", "snapshots", "total bytes", "recovery", "chain len"},
	}
	for _, r := range rows {
		t.Add(r.AnchorEvery, r.Snapshots, humanBytes(r.TotalBytes), r.MeanRecovery, r.ChainLen)
	}
	return t
}

// A2Row compares term-wise vs grouped measurement of the VQE objective.
type A2Row struct {
	Mode          string
	ShotsPerStep  uint64
	StepVirtual   time.Duration
	FinalLoss     float64
	GroundEnergy  float64
	SettingsCount int // shot batches per energy evaluation
}

// RunA2Grouping trains the same VQE twice — estimating energies term by
// term and with qubit-wise-commuting grouping — and compares the shot bill
// and progress. Grouping cuts the per-evaluation batch count from the term
// count to the group count at equal shots-per-batch.
func RunA2Grouping(steps int) ([]A2Row, error) {
	if steps < 2 {
		return nil, fmt.Errorf("harness: A2 needs ≥2 steps")
	}
	h := observable.TFIM(4, 1.0, 0.7)
	ground := observable.GroundStateEnergy(h, 400, 1)
	qcfg := qpu.Config{ShotTime: time.Millisecond}

	var rows []A2Row
	for _, grouped := range []bool{false, true} {
		var task train.Task
		var settings int
		if grouped {
			vt, err := train.NewGroupedVQETask(h)
			if err != nil {
				return nil, err
			}
			task = vt
			settings = observable.NumGroups(h)
		} else {
			vt, err := train.NewVQETask(h)
			if err != nil {
				return nil, err
			}
			task = vt
			settings = h.NumTerms()
		}
		cfg, err := vqeTrainConfig(4, 2, 64, 1313, qcfg)
		if err != nil {
			return nil, err
		}
		cfg.Task = task
		tr, err := train.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := tr.Run(steps); err != nil {
			return nil, err
		}
		mode := "term-wise"
		if grouped {
			mode = "grouped"
		}
		rows = append(rows, A2Row{
			Mode:          mode,
			ShotsPerStep:  tr.Backend().TotalShots() / uint64(steps),
			StepVirtual:   tr.Backend().Clock() / time.Duration(steps),
			FinalLoss:     tr.LossHistory()[len(tr.LossHistory())-1],
			GroundEnergy:  ground,
			SettingsCount: settings,
		})
	}
	return rows, nil
}

// A2Table renders the rows.
func A2Table(rows []A2Row) *Table {
	t := &Table{
		Title:   "Ablation A2 — Measurement grouping: shot bill per optimizer step",
		Columns: []string{"estimator", "settings/eval", "shots/step", "step (QPU)", "final loss", "exact ground"},
	}
	for _, r := range rows {
		t.Add(r.Mode, r.SettingsCount, r.ShotsPerStep, r.StepVirtual, r.FinalLoss, r.GroundEnergy)
	}
	return t
}
