// VQE with sub-step checkpointing under session preemptions: a 4-qubit
// transverse-field Ising VQE whose QPU session is killed repeatedly
// mid-gradient. Sub-step checkpoints (every few gradient work units) bound
// the lost work to a handful of circuit evaluations — far less than one
// optimizer step, which here costs dozens of QPU jobs.
//
// Run with:
//
//	go run ./examples/vqe_resume
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/grad"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/train"
)

func main() {
	h := observable.TFIM(4, 1.0, 0.9)
	task, err := train.NewVQETask(h)
	if err != nil {
		log.Fatal(err)
	}
	ansatz := circuit.HardwareEfficient(4, 2)

	// A QPU session that dies every ~4 minutes of virtual time; one
	// optimizer step costs 2P = 44 gradient jobs of several seconds each,
	// so most steps see at least one kill.
	sched, err := failure.NewPeriodic(4*time.Minute, 4*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "vqe-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := core.DirBackend(dir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := train.Config{
		Circuit:       ansatz,
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         128,
		Seed:          606,
		QPU: qpu.Config{
			QueueDelay:  2 * time.Second,
			ShotTime:    time.Millisecond,
			GateLatency: time.Microsecond,
		},
		Failures: sched,
	}

	const targetSteps = 12
	fmt.Printf("VQE: %d params → %d gradient jobs per step; session killed every 4 min\n",
		ansatz.NumParams, 2*ansatz.NumParams)
	fmt.Println("strategy: delta checkpoints every 4 gradient work units")
	fmt.Println()

	totalCrashes := 0
	var tr *train.Trainer
	for attempt := 1; ; attempt++ {
		mgr, err := core.NewManager(core.Options{
			Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		runCfg := cfg
		runCfg.Manager = mgr
		runCfg.Policy = core.Policy{EveryUnits: 4}

		tr, err = train.New(runCfg)
		if err != nil {
			log.Fatal(err)
		}
		if attempt > 1 {
			live := runCfg.Meta()
			st, report, lerr := core.LoadLatestBackendOptions(store, &live, core.RestoreOptions{})
			if lerr != nil {
				log.Fatal(lerr)
			}
			if err := tr.Restore(st); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  attempt %d: restored step %d (+ %d/%d gradient units) from %s\n",
				attempt, st.Step, completedUnits(st), 2*ansatz.NumParams, filepath.Join(dir, report.Path))
		}

		_, runErr := tr.Run(targetSteps)
		mgr.Close()
		if runErr == nil {
			break
		}
		if !errors.Is(runErr, qpu.ErrPreempted) {
			log.Fatal(runErr)
		}
		totalCrashes++
		fmt.Printf("  attempt %d: session killed at QPU t=%v (step %d)\n",
			attempt, tr.Backend().Clock().Round(time.Second), tr.Step())
	}

	fmt.Printf("\ncompleted %d steps after %d session kills\n", tr.Step(), totalCrashes)
	fmt.Printf("final energy: %.4f (exact ground: %.4f)\n",
		tr.LossHistory()[len(tr.LossHistory())-1], observable.GroundStateEnergy(h, 400, 1))
	fmt.Printf("QPU time this incarnation: %v; preemptions observed by backend: %d\n",
		tr.Backend().Clock().Round(time.Second), tr.Backend().Preemptions())
}

// completedUnits decodes how many gradient units a snapshot carries.
func completedUnits(st *core.TrainingState) int {
	if len(st.GradAccum) == 0 {
		return 0
	}
	// The accumulator blob starts with a uint64 unit count followed by a
	// bitmap; reuse the grad package decoding via a throwaway accumulator.
	return decodeUnits(st.GradAccum)
}

func decodeUnits(blob []byte) int {
	acc := &grad.Accumulator{}
	if err := acc.UnmarshalBinary(blob); err != nil {
		return 0
	}
	return acc.CompletedUnits()
}
