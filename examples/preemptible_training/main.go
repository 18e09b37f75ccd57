// Preemptible training: a head-to-head comparison of recovery strategies
// on the same QNN job under the same random failure process — the
// executable version of the paper's goodput argument (Figure 4).
//
// Three clients train an identical 4-qubit VQE to 8 optimizer steps while
// the QPU session dies with MTBF = 3 minutes:
//
//   - "none" restarts from scratch after every failure,
//   - "per-step" restores a full checkpoint taken after each step,
//   - "sub-step" restores delta checkpoints taken every 5 gradient units.
//
// Run with:
//
//	go run ./examples/preemptible_training
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/rng"
	"repro/internal/train"
)

const (
	targetSteps = 8
	mtbf        = 3 * time.Minute
	restartCost = 30 * time.Second
	maxAttempts = 200
)

func main() {
	h := observable.TFIM(4, 1.0, 0.7)
	task, err := train.NewVQETask(h)
	if err != nil {
		log.Fatal(err)
	}
	base := train.Config{
		Circuit:       circuit.HardwareEfficient(4, 2),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         64,
		Seed:          808,
		QPU: qpu.Config{
			QueueDelay:  2 * time.Second,
			ShotTime:    time.Millisecond,
			GateLatency: time.Microsecond,
		},
	}

	// Failure-free baseline.
	ideal, err := train.New(base)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ideal.Run(targetSteps); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job: %d steps of VQE ≈ %v of QPU time failure-free; MTBF %v\n\n",
		targetSteps, ideal.Backend().Clock().Round(time.Second), mtbf)

	fmt.Printf("%-10s %-6s %-8s %-12s %-9s %-12s\n",
		"strategy", "done", "crashes", "world time", "goodput", "ckpt bytes")
	for _, strat := range []string{"none", "per-step", "sub-step"} {
		res := runStrategy(base, strat, ideal.Backend().Clock())
		fmt.Printf("%-10s %-6v %-8d %-12v %-9.3f %-12d\n",
			strat, res.done, res.crashes, res.world.Round(time.Second), res.goodput, res.ckptBytes)
	}
}

type result struct {
	done      bool
	crashes   int
	world     time.Duration
	goodput   float64
	ckptBytes int64
}

func runStrategy(base train.Config, strat string, idealTime time.Duration) result {
	// Every strategy faces the same failure instants.
	sched, err := failure.NewPoisson(mtbf, 24*time.Hour, rng.New(99))
	if err != nil {
		log.Fatal(err)
	}
	cfg := base
	cfg.Failures = sched

	var dir string
	if strat != "none" {
		dir, err = os.MkdirTemp("", "preempt-ckpt-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	var res result
	var carried qpu.Counters
	for attempt := 0; attempt < maxAttempts; attempt++ {
		runCfg := cfg
		var mgr *core.Manager
		switch strat {
		case "per-step":
			mgr, err = core.NewManager(core.Options{Dir: dir, Strategy: core.StrategyFull, Retain: 3})
			runCfg.Policy = core.Policy{EverySteps: 1}
		case "sub-step":
			mgr, err = core.NewManager(core.Options{Dir: dir, Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 3})
			runCfg.Policy = core.Policy{EveryUnits: 5}
		}
		if err != nil {
			log.Fatal(err)
		}
		runCfg.Manager = mgr

		tr, err := train.New(runCfg)
		if err != nil {
			log.Fatal(err)
		}
		if strat != "none" && attempt > 0 {
			live := runCfg.Meta()
			store, err := core.DirBackend(dir)
			if err != nil {
				log.Fatal(err)
			}
			if st, _, lerr := core.LoadLatestBackendOptions(store, &live, core.RestoreOptions{}); lerr == nil {
				if err := tr.Restore(st); err != nil {
					log.Fatal(err)
				}
			} else if !errors.Is(lerr, core.ErrNoCheckpoint) {
				log.Fatal(lerr)
			}
		}
		tr.Backend().RestoreCounters(carried)

		_, runErr := tr.Run(targetSteps)
		carried = tr.Backend().Snapshot()
		if mgr != nil {
			res.ckptBytes += mgr.Stats().BytesWritten
			mgr.Close()
		}
		if runErr == nil {
			res.done = true
			break
		}
		if !errors.Is(runErr, qpu.ErrPreempted) {
			log.Fatal(runErr)
		}
		res.crashes++
		carried.Clock += restartCost
	}
	res.world = carried.Clock
	if res.done && res.world > 0 {
		res.goodput = float64(idealTime) / float64(res.world)
	}
	return res
}
