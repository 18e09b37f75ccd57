// Quickstart: train a small quantum neural network (VQE on a 3-qubit
// transverse-field Ising chain) with per-step checkpointing, simulate a
// client crash halfway, and resume from disk — demonstrating that the
// resumed trajectory continues exactly where it stopped.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/train"
)

func main() {
	// The problem: find the ground state of a TFIM chain with a
	// hardware-efficient ansatz.
	hamiltonian := observable.TFIM(3, 1.0, 0.7)
	task, err := train.NewVQETask(hamiltonian)
	if err != nil {
		log.Fatal(err)
	}
	ansatz := circuit.HardwareEfficient(3, 2)
	fmt.Printf("problem: %s\n", hamiltonian)
	fmt.Printf("ansatz:  %s\n\n", ansatz)

	ckptDir, err := os.MkdirTemp("", "quickstart-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	store, err := core.DirBackend(ckptDir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := train.Config{
		Circuit:       ansatz,
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         256,
		Seed:          2025,
		QPU:           qpu.DefaultConfig(),
	}

	// Phase 1: train 15 steps with a checkpoint after every optimizer step.
	mgr, err := core.NewManager(core.Options{
		Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 8, Retain: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Manager = mgr
	cfg.Policy = core.Policy{EverySteps: 1}
	trainer, err := train.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: training 15 steps, checkpointing each step…")
	if _, err := trainer.Run(15); err != nil {
		log.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  step %d, loss %.4f, QPU time %v, %d checkpoints on disk\n\n",
		trainer.Step(), trainer.LossHistory()[14], trainer.Backend().Clock(), trainer.Checkpoints())

	// Phase 2: the client "crashes" — the trainer object is gone. A new
	// process restores the newest checkpoint and keeps training.
	fmt.Println("phase 2: simulated crash; resuming from disk…")
	mgr2, err := core.NewManager(core.Options{
		Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 8, Retain: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Manager = mgr2
	resumed, report, err := train.ResumeLatestBackendOptions(cfg, store, core.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  restored %s (step %d, chain length %d)\n",
		filepath.Join(ckptDir, report.Path), report.Step, report.ChainLen)
	if _, err := resumed.Run(30); err != nil {
		log.Fatal(err)
	}
	if err := mgr2.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nloss trajectory (15 pre-crash + 15 post-resume steps):\n")
	for i, l := range resumed.LossHistory() {
		marker := ""
		if i == 14 {
			marker = "   ← crash/resume boundary"
		}
		fmt.Printf("  step %2d: %8.4f%s\n", i+1, l, marker)
	}
	ground := observable.GroundStateEnergy(hamiltonian, 400, 1)
	final := resumed.LossHistory()[len(resumed.LossHistory())-1]
	fmt.Printf("\nfinal energy %.4f vs exact ground energy %.4f (gap %.4f)\n",
		final, ground, final-ground)
	fmt.Printf("cumulative QPU cost: %v, %d shots across both incarnations\n",
		resumed.Backend().Clock(), resumed.Backend().TotalShots())
}
