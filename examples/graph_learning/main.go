// Graph-structured semi-supervised learning: characterize a hidden
// single-qubit operation from time-evolution snapshots of a device where
// only the first few snapshots are labeled. The line-graph structure
// (consecutive snapshots have similar outputs) regularizes training through
// a Hilbert–Schmidt edge term, improving fidelity on the unlabeled
// vertices — and because that loss is quadratic in the network output, its
// gradient uses the exact four-point parameter-shift rule, checkpointed at
// work-unit granularity like every other gradient in this repository.
//
// Run with:
//
//	go run ./examples/graph_learning
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dqnn"
	"repro/internal/grad"
	"repro/internal/optimizer"
	"repro/internal/quantum"
	"repro/internal/rng"
)

const (
	vertices   = 10
	supervised = 2
	steps      = 30
	lambda     = 0.2
	lr         = 0.1
	instances  = 5 // hidden-unitary instances averaged per configuration
)

// makeGraph builds one problem instance: a hidden unitary, an evolution and
// its line-graph snapshot dataset.
func makeGraph(seed uint64) (*dqnn.GraphData, func(*quantum.State) *quantum.State, error) {
	r := rng.New(seed)
	hiddenU := quantum.RandomUnitary(1, r)
	hidden := func(s *quantum.State) *quantum.State {
		out := s.Clone()
		out.ApplyUnitary(hiddenU)
		return out
	}
	step := quantum.RY(0.25)
	evolve := func(s *quantum.State) *quantum.State {
		out := s.Clone()
		out.Apply1(&step, 0)
		return out
	}
	g, err := dqnn.LineGraphFromEvolution(evolve, hidden, quantum.RandomState(1, r), vertices, supervised)
	return g, hidden, err
}

func main() {
	net, err := dqnn.New([]int{1, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("line graph: %d snapshots, %d labeled; network %v with %d params (4-point rule: %d units/step)\n",
		vertices, supervised, net.Widths(), net.NumParams(), net.PlanUnitsGraph())
	fmt.Printf("averaging over %d hidden-unitary instances\n\n", instances)

	for _, lam := range []float64{0, lambda} {
		var mean float64
		for inst := uint64(0); inst < instances; inst++ {
			g, hidden, err := makeGraph(1700 + inst)
			if err != nil {
				log.Fatal(err)
			}
			vf, err := trainGraph(net, g, hidden, lam)
			if err != nil {
				log.Fatal(err)
			}
			mean += vf
		}
		mean /= instances
		label := "supervised only   "
		if lam > 0 {
			label = fmt.Sprintf("with graph (λ=%.1f)", lam)
		}
		fmt.Printf("%s → mean validation fidelity on %d unlabeled snapshots: %.4f\n",
			label, vertices-supervised, mean)
	}
}

// trainGraph trains with checkpointing every 20 gradient units and a
// mid-run crash/resume, returning the unlabeled-vertex fidelity.
func trainGraph(net *dqnn.Network, g *dqnn.GraphData, hidden func(*quantum.State) *quantum.State, lam float64) (float64, error) {
	dir, err := os.MkdirTemp("", "graph-ckpt-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := core.DirBackend(dir)
	if err != nil {
		return 0, err
	}
	mgr, err := core.NewManager(core.Options{Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 16, Retain: 2})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()

	set := rng.NewSet(42)
	theta := net.InitParams(set.Init)
	opt := optimizer.NewAdam(net.NumParams(), lr)
	acc := grad.NewAccumulator(net.PlanUnitsGraph())

	capture := func(stepNum uint64) *core.TrainingState {
		st := core.NewTrainingState()
		st.Step = stepNum
		st.Params = append([]float64{}, theta...)
		st.Optimizer, _ = opt.MarshalBinary()
		st.RNG, _ = set.MarshalBinary()
		if acc.CompletedUnits() > 0 {
			st.GradAccum, _ = acc.MarshalBinary()
		}
		st.Meta = core.Meta{FormatVersion: core.FormatVersion,
			CircuitFP: net.Fingerprint(), ProblemFP: "graph-evolution",
			OptimizerName: "adam", Extra: fmt.Sprintf("lr=%g;lambda=%g", lr, lam)}
		return st
	}

	for s := uint64(0); int(s) < steps; s++ {
		unitsSince := 0
		hook := func(u, total int) error {
			unitsSince++
			if unitsSince >= 20 {
				unitsSince = 0
				_, err := mgr.Save(capture(s))
				return err
			}
			return nil
		}
		gr, err := net.GraphGradient(g, theta, lam, acc, hook)
		if err != nil {
			return 0, err
		}
		opt.Step(theta, gr)
		acc.Reset()
	}
	return net.ValidationFidelity(g, theta, hidden)
}
