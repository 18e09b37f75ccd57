package harness

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/qpu"
	"repro/internal/rng"
	"repro/internal/train"
)

// F4Row is one (MTBF, strategy) point of the goodput figure: total virtual
// time to finish a fixed-length training job under injected failures.
type F4Row struct {
	MTBF        time.Duration
	Strategy    string
	Completed   bool
	Steps       int
	WorldTime   time.Duration // total virtual time incl. redone work and restarts
	IdealTime   time.Duration // failure-free completion time
	Goodput     float64       // IdealTime / WorldTime
	Crashes     int
	TotalShots  uint64
	WastedShots uint64 // preempted-job shots (redone work appears in TotalShots)
	CkptBytes   int64
}

// f4Strategy describes one recovery strategy.
type f4Strategy struct {
	name        string
	checkpoint  bool
	options     core.Options
	policy      core.Policy
	substepSafe bool
}

// f4MaxAttempts bounds the crash-restart loop (restart-from-scratch may
// never finish at small MTBF — that is the finding).
const f4MaxAttempts = 300

// f4RestartCost is the modeled client restart + queue re-entry time.
const f4RestartCost = 30 * time.Second

// RunF4Goodput measures time-to-completion of a fixed VQE job under
// Poisson failures, for three strategies: no checkpointing (restart from
// scratch), full checkpoint per optimizer step, and sub-step delta
// checkpoints.
func RunF4Goodput(stepsTarget int, mtbfs []time.Duration) ([]F4Row, error) {
	if stepsTarget < 1 {
		return nil, fmt.Errorf("harness: F4 needs ≥1 step")
	}
	qcfg := qpu.Config{
		QueueDelay:  2 * time.Second,
		ShotTime:    time.Millisecond,
		GateLatency: time.Microsecond,
	}
	baseCfg, err := vqeTrainConfig(4, 2, 64, 555, qcfg)
	if err != nil {
		return nil, err
	}

	// Failure-free baseline for the ideal time.
	ideal, err := train.New(baseCfg)
	if err != nil {
		return nil, err
	}
	if _, err := ideal.Run(stepsTarget); err != nil {
		return nil, err
	}
	idealTime := ideal.Backend().Clock()
	idealShots := ideal.Backend().TotalShots()
	_ = idealShots

	strategies := []f4Strategy{
		{name: "none", checkpoint: false},
		{name: "full-per-step", checkpoint: true,
			options: core.Options{Strategy: core.StrategyFull, Retain: 4},
			policy:  core.Policy{EverySteps: 1}},
		{name: "delta-substep", checkpoint: true,
			options:     core.Options{Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 4},
			policy:      core.Policy{EveryUnits: 5},
			substepSafe: true},
	}

	var rows []F4Row
	for mi, mtbf := range mtbfs {
		for _, strat := range strategies {
			row, err := runF4One(baseCfg, strat, mtbf, stepsTarget, idealTime, uint64(7000+mi))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runF4One(baseCfg train.Config, strat f4Strategy, mtbf time.Duration, stepsTarget int, idealTime time.Duration, seed uint64) (F4Row, error) {
	horizon := time.Duration(f4MaxAttempts) * (idealTime/4 + f4RestartCost + mtbf)
	sched, err := failure.NewPoisson(mtbf, horizon, rng.New(seed))
	if err != nil {
		return F4Row{}, err
	}
	cfg := baseCfg
	cfg.Failures = sched

	opts := strat.options
	if strat.checkpoint {
		dir, err := os.MkdirTemp("", "qckpt-f4-*")
		if err != nil {
			return F4Row{}, err
		}
		defer os.RemoveAll(dir)
		if opts.Backend, err = core.DirBackend(dir); err != nil {
			return F4Row{}, err
		}
	}

	row := F4Row{MTBF: mtbf, Strategy: strat.name, Steps: stepsTarget, IdealTime: idealTime}
	var carried qpu.Counters
	completed := false

	for attempt := 0; attempt < f4MaxAttempts; attempt++ {
		var mgr *core.Manager
		runCfg := cfg
		if strat.checkpoint {
			mgr, err = core.NewManager(opts)
			if err != nil {
				return row, err
			}
			runCfg.Manager = mgr
			runCfg.Policy = strat.policy
		}
		tr, err := train.New(runCfg)
		if err != nil {
			return row, err
		}
		if strat.checkpoint && attempt > 0 {
			live := runCfg.Meta()
			if st, _, lerr := core.LoadLatestBackendOptions(opts.Backend, &live, core.RestoreOptions{}); lerr == nil {
				if rerr := tr.Restore(st); rerr != nil {
					return row, rerr
				}
			} else if !errors.Is(lerr, core.ErrNoCheckpoint) {
				return row, lerr
			}
		}
		// World continuity: the backend continues from the carried world
		// clock and cumulative billing, regardless of where the restored
		// training state rewound to.
		tr.Backend().RestoreCounters(carried)

		_, runErr := tr.Run(stepsTarget)
		carried = tr.Backend().Snapshot()
		if mgr != nil {
			if cerr := mgr.Close(); cerr != nil {
				return row, cerr
			}
			st := mgr.Stats()
			row.CkptBytes += st.BytesWritten
		}
		if runErr == nil {
			completed = true
			break
		}
		if !errors.Is(runErr, qpu.ErrPreempted) {
			return row, runErr
		}
		row.Crashes++
		carried.Clock += f4RestartCost
	}

	row.Completed = completed
	row.WorldTime = carried.Clock
	row.TotalShots = carried.TotalShots
	row.WastedShots = carried.WastedShots
	if row.WorldTime > 0 {
		row.Goodput = float64(idealTime) / float64(row.WorldTime)
	}
	if !completed {
		row.Goodput = 0
	}
	return row, nil
}

// F4Table renders the rows.
func F4Table(rows []F4Row) *Table {
	t := &Table{
		Title: "Figure 4 — Time-to-completion and goodput under Poisson failures (fixed VQE job)",
		Columns: []string{"MTBF", "strategy", "done", "world time", "ideal",
			"goodput", "crashes", "shots", "ckpt bytes"},
	}
	for _, r := range rows {
		t.Add(r.MTBF, r.Strategy, r.Completed, r.WorldTime, r.IdealTime,
			fmt.Sprintf("%.3f", r.Goodput), r.Crashes, r.TotalShots,
			humanBytes(r.CkptBytes))
	}
	return t
}
