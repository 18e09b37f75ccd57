// Dissipative quantum neural network training with checkpointing: a
// 1-2-1 DQNN (density-matrix feed-forward with traced-out layers) learns a
// hidden single-qubit unitary from 6 state pairs, checkpointing its full
// training state — parameters, Adam moments, RNG, and the mid-gradient
// accumulator — directly through the core engine. Halfway through, the
// process "crashes" and resumes from disk; the final parameters are
// verified bitwise-identical to an uninterrupted run.
//
// This example shows the checkpoint engine is not welded to the circuit
// trainer: any workload that exposes (params, optimizer blob, RNG blob,
// accumulator blob) can use it.
//
// Run with:
//
//	go run ./examples/dqnn_train
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dqnn"
	"repro/internal/grad"
	"repro/internal/optimizer"
	"repro/internal/quantum"
	"repro/internal/rng"
)

const (
	steps = 40
	lr    = 0.1
)

func main() {
	net, err := dqnn.New([]int{1, 2, 1})
	if err != nil {
		log.Fatal(err)
	}
	pairs := makePairs(6)
	fmt.Printf("network %v: %d parameters, %d gradient units per step\n",
		net.Widths(), net.NumParams(), net.PlanUnits())

	// Uninterrupted reference run.
	refTheta, refLoss := runUninterrupted(net, pairs)

	// Checkpointed run with a crash after 20 steps.
	dir, err := os.MkdirTemp("", "dqnn-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	theta, losses := runWithCrash(net, pairs, dir)

	fmt.Printf("\nfinal loss: %.6f (reference %.6f)\n", losses[len(losses)-1], refLoss)
	bitwise := true
	for i := range theta {
		if theta[i] != refTheta[i] {
			bitwise = false
			break
		}
	}
	fmt.Printf("crash/resume trajectory bitwise identical to uninterrupted run: %v\n", bitwise)
	if !bitwise {
		os.Exit(1)
	}
}

func makePairs(count int) []dqnn.Pair {
	r := rng.New(404)
	u := quantum.RandomUnitary(1, r)
	pairs := make([]dqnn.Pair, count)
	for i := range pairs {
		in := quantum.RandomState(1, r)
		tgt := in.Clone()
		tgt.ApplyUnitary(u)
		pairs[i] = dqnn.Pair{In: in, Target: tgt}
	}
	return pairs
}

// trainerState bundles everything the DQNN loop must checkpoint.
type trainerState struct {
	net   *dqnn.Network
	theta []float64
	opt   *optimizer.Adam
	acc   *grad.Accumulator
	rngs  *rng.Set
	step  uint64
	loss  []float64
}

func newTrainerState(net *dqnn.Network) *trainerState {
	set := rng.NewSet(777)
	return &trainerState{
		net:   net,
		theta: net.InitParams(set.Init),
		opt:   optimizer.NewAdam(net.NumParams(), lr),
		acc:   grad.NewAccumulator(net.PlanUnits()),
		rngs:  set,
	}
}

func (ts *trainerState) meta() core.Meta {
	return core.Meta{
		FormatVersion: core.FormatVersion,
		CircuitFP:     ts.net.Fingerprint(),
		ProblemFP:     "dqnn-hidden-unitary",
		OptimizerName: "adam",
		Extra:         fmt.Sprintf("lr=%g", lr),
	}
}

func (ts *trainerState) capture() *core.TrainingState {
	st := core.NewTrainingState()
	st.Step = ts.step
	st.Params = append([]float64{}, ts.theta...)
	st.Optimizer, _ = ts.opt.MarshalBinary()
	st.RNG, _ = ts.rngs.MarshalBinary()
	if ts.acc.CompletedUnits() > 0 {
		st.GradAccum, _ = ts.acc.MarshalBinary()
	}
	st.LossHistory = append([]float64{}, ts.loss...)
	st.Meta = ts.meta()
	return st
}

func (ts *trainerState) restore(st *core.TrainingState) error {
	if err := st.Meta.CompatibleWith(ts.meta()); err != nil {
		return err
	}
	ts.step = st.Step
	ts.theta = append(ts.theta[:0], st.Params...)
	if err := ts.opt.UnmarshalBinary(st.Optimizer); err != nil {
		return err
	}
	if err := ts.rngs.UnmarshalBinary(st.RNG); err != nil {
		return err
	}
	if len(st.GradAccum) > 0 {
		if err := ts.acc.UnmarshalBinary(st.GradAccum); err != nil {
			return err
		}
	} else {
		ts.acc.Reset()
	}
	ts.loss = append([]float64{}, st.LossHistory...)
	return nil
}

// runSteps advances the trainer to `until` steps, checkpointing after every
// completed step when mgr is non-nil.
func (ts *trainerState) runSteps(pairs []dqnn.Pair, until int, mgr *core.Manager) error {
	for int(ts.step) < until {
		g, err := ts.net.Gradient(pairs, ts.theta, ts.acc, nil)
		if err != nil {
			return err
		}
		ts.opt.Step(ts.theta, g)
		ts.acc.Reset()
		ts.step++
		l, err := ts.net.Loss(pairs, ts.theta, -1, 0)
		if err != nil {
			return err
		}
		ts.loss = append(ts.loss, l)
		if mgr != nil {
			if _, err := mgr.Save(ts.capture()); err != nil {
				return err
			}
		}
	}
	return nil
}

func runUninterrupted(net *dqnn.Network, pairs []dqnn.Pair) ([]float64, float64) {
	ts := newTrainerState(net)
	if err := ts.runSteps(pairs, steps, nil); err != nil {
		log.Fatal(err)
	}
	return ts.theta, ts.loss[len(ts.loss)-1]
}

func runWithCrash(net *dqnn.Network, pairs []dqnn.Pair, dir string) ([]float64, []float64) {
	store, err := core.DirBackend(dir)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := core.NewManager(core.Options{Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	ts := newTrainerState(net)
	if err := ts.runSteps(pairs, steps/2, mgr); err != nil {
		log.Fatal(err)
	}
	mgr.Close()
	fmt.Printf("trained to step %d (loss %.6f), crashing…\n", ts.step, ts.loss[len(ts.loss)-1])

	// New process: fresh state objects, restore from disk.
	mgr2, err := core.NewManager(core.Options{Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr2.Close()
	ts2 := newTrainerState(net)
	live := ts2.meta()
	st, report, err := core.LoadLatestBackendOptions(store, &live, core.RestoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ts2.restore(st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed from %s at step %d\n", filepath.Join(dir, report.Path), ts2.step)
	if err := ts2.runSteps(pairs, steps, mgr2); err != nil {
		log.Fatal(err)
	}
	return ts2.theta, ts2.loss
}
