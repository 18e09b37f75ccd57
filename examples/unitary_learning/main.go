// Unitary learning: the canonical quantum-neural-network workload — learn
// an unknown 2-qubit unitary ("an uncharacterized quantum device") from
// input/output state pairs, with a train/validation split to measure
// generalization, under checkpointing.
//
// This mirrors the training task of the DQNN literature (train on S pairs,
// validate on the held-out remainder, sweep S) and shows the checkpoint
// engine on a dataset-driven loss: the data cursor and epoch shuffles are
// checkpoint state, so resumed runs walk the identical minibatch sequence.
//
// Run with:
//
//	go run ./examples/unitary_learning
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/qpu"
	"repro/internal/rng"
	"repro/internal/train"
)

func main() {
	const (
		qubits    = 2
		totalData = 20
		steps     = 60
	)

	fmt.Println("generalization vs training-set size (validation on held-out pairs)")
	fmt.Printf("%-8s %-14s %-16s\n", "S", "train loss", "validation loss")

	for _, s := range []int{2, 4, 8, 16} {
		trainLoss, valLoss, err := trainWithSplit(qubits, totalData, s, steps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-14.4f %-16.4f\n", s, trainLoss, valLoss)
	}

	fmt.Println("\ncrash/resume on the dataset workload:")
	if err := crashResumeDemo(qubits, totalData, steps); err != nil {
		log.Fatal(err)
	}
}

// trainWithSplit trains on S pairs and reports final train and validation
// loss (1 − mean fidelity).
func trainWithSplit(qubits, total, s, steps int) (trainLoss, valLoss float64, err error) {
	data, err := dataset.NewUnitaryLearning(qubits, total, rng.New(99))
	if err != nil {
		return 0, 0, err
	}
	trainSet, valSet, err := data.Split(s)
	if err != nil {
		return 0, 0, err
	}
	task, err := train.NewStateLearningTask(trainSet)
	if err != nil {
		return 0, 0, err
	}
	batch := s
	if batch > 4 {
		batch = 4
	}
	cfg := train.Config{
		Circuit:       circuit.HardwareEfficient(qubits, 3),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         512,
		BatchSize:     batch,
		Seed:          321,
		QPU:           qpu.Config{}, // latency-free for the sweep
	}
	tr, err := train.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := tr.Run(steps); err != nil {
		return 0, 0, err
	}
	valTask, err := train.NewStateLearningTask(valSet)
	if err != nil {
		return 0, 0, err
	}
	trainLoss = tr.ExactLoss()
	valLoss = valTask.ExactLoss(tr.Backend(), cfg.Circuit, tr.Theta())
	return trainLoss, valLoss, nil
}

// crashResumeDemo interrupts a dataset-driven run and shows the resumed
// trainer continues with identical epoch/cursor state.
func crashResumeDemo(qubits, total, steps int) error {
	data, err := dataset.NewUnitaryLearning(qubits, total, rng.New(7))
	if err != nil {
		return err
	}
	task, err := train.NewStateLearningTask(data)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "unitary-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := core.NewManager(core.Options{Dir: dir, Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		return err
	}
	cfg := train.Config{
		Circuit:       circuit.HardwareEfficient(qubits, 3),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         512,
		BatchSize:     5,
		Seed:          11,
		QPU:           qpu.DefaultConfig(),
		Manager:       mgr,
		Policy:        core.Policy{EverySteps: 1},
	}
	tr, err := train.New(cfg)
	if err != nil {
		return err
	}
	half := steps / 2
	if _, err := tr.Run(half); err != nil {
		return err
	}
	mgr.Close()
	fmt.Printf("  pre-crash:  step %d, epoch %d, loss %.4f\n", tr.Step(), tr.Epoch(), tr.ExactLoss())

	mgr2, err := core.NewManager(core.Options{Dir: dir, Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		return err
	}
	cfg.Manager = mgr2
	store, err := core.DirBackend(dir)
	if err != nil {
		return err
	}
	resumed, report, err := train.ResumeLatestBackendOptions(cfg, store, core.RestoreOptions{})
	if err != nil {
		return err
	}
	defer mgr2.Close()
	fmt.Printf("  restored:   %s at step %d (epoch %d)\n", filepath.Join(dir, report.Path), resumed.Step(), resumed.Epoch())
	if _, err := resumed.Run(steps); err != nil {
		return err
	}
	fmt.Printf("  post-resume: step %d, epoch %d, loss %.4f (fidelity %.4f against the hidden unitary's outputs)\n",
		resumed.Step(), resumed.Epoch(), resumed.ExactLoss(), 1-resumed.ExactLoss())
	return nil
}
