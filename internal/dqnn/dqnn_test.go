package dqnn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grad"
	"repro/internal/optimizer"
	"repro/internal/quantum"
	"repro/internal/rng"
)

func makePairs(t *testing.T, qubits, count int, seed uint64) []Pair {
	t.Helper()
	r := rng.New(seed)
	u := quantum.RandomUnitary(qubits, r)
	pairs := make([]Pair, count)
	for i := range pairs {
		in := quantum.RandomState(qubits, r)
		out := in.Clone()
		out.ApplyUnitary(u)
		pairs[i] = Pair{In: in, Target: out}
	}
	return pairs
}

func TestNewParamCount(t *testing.T) {
	// 1-1 network: transition u3 on 2 qubits (6) + 1 CAN (3) = 9, final u3
	// on 1 output (3) → 12.
	n, err := New([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumParams() != 12 {
		t.Errorf("1-1 params = %d, want 12", n.NumParams())
	}
	// 2-3-2: t1 = 3·5 + 3·6 = 33; t2 = 3·5 + 3·6 = 33; final 6 → 72.
	n2, err := New([]int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumParams() != 72 {
		t.Errorf("2-3-2 params = %d, want 72", n2.NumParams())
	}
	if n2.InputQubits() != 2 || n2.OutputQubits() != 2 {
		t.Errorf("widths wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{2}); err == nil {
		t.Errorf("single layer accepted")
	}
	if _, err := New([]int{2, 0}); err == nil {
		t.Errorf("zero-width layer accepted")
	}
	if _, err := New([]int{6, 6}); err == nil {
		t.Errorf("oversized transition accepted")
	}
}

func TestFeedForwardProducesValidState(t *testing.T) {
	n, _ := New([]int{2, 2})
	r := rng.New(1)
	theta := n.InitParams(r)
	in := quantum.RandomState(2, r)
	out, err := n.FeedForwardPure(in, theta, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Qubits() != 2 {
		t.Fatalf("output qubits = %d", out.Qubits())
	}
	if err := out.Validate(1e-8); err != nil {
		t.Errorf("output not a valid density matrix: %v", err)
	}
}

func TestFeedForwardDeeperNetworkStillCPTP(t *testing.T) {
	n, err := New([]int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	theta := n.InitParams(r)
	out, err := n.FeedForwardPure(quantum.RandomState(2, r), theta, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Qubits() != 1 {
		t.Fatalf("output qubits = %d", out.Qubits())
	}
	if err := out.Validate(1e-8); err != nil {
		t.Errorf("deep network output invalid: %v", err)
	}
}

func TestFeedForwardInputValidation(t *testing.T) {
	n, _ := New([]int{2, 2})
	theta := make([]float64, n.NumParams())
	if _, err := n.FeedForwardPure(quantum.New(3), theta, -1, 0); err == nil {
		t.Errorf("wrong input size accepted")
	}
	if _, err := n.FeedForwardPure(quantum.New(2), theta[:3], -1, 0); err == nil {
		t.Errorf("wrong param count accepted")
	}
}

func TestLossRangeAndIdentityTarget(t *testing.T) {
	n, _ := New([]int{1, 1})
	r := rng.New(3)
	theta := n.InitParams(r)
	pairs := makePairs(t, 1, 4, 4)
	l, err := n.Loss(pairs, theta, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l < 0 || l > 1 {
		t.Errorf("loss %v out of [0,1]", l)
	}
	if _, err := n.Loss(nil, theta, -1, 0); err == nil {
		t.Errorf("empty pairs accepted")
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	n, _ := New([]int{1, 1})
	r := rng.New(5)
	theta := n.InitParams(r)
	pairs := makePairs(t, 1, 3, 6)

	acc := grad.NewAccumulator(n.PlanUnits())
	g, err := n.Gradient(pairs, theta, acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-5
	for p := 0; p < n.NumParams(); p++ {
		thetaP := append([]float64{}, theta...)
		thetaP[p] += eps
		lp, _ := n.Loss(pairs, thetaP, -1, 0)
		thetaP[p] -= 2 * eps
		lm, _ := n.Loss(pairs, thetaP, -1, 0)
		fd := (lp - lm) / (2 * eps)
		if math.Abs(g[p]-fd) > 1e-4 {
			t.Errorf("param %d: shift %v vs finite-diff %v", p, g[p], fd)
		}
	}
}

func TestGradientResumable(t *testing.T) {
	n, _ := New([]int{1, 2, 1})
	r := rng.New(7)
	theta := n.InitParams(r)
	pairs := makePairs(t, 1, 2, 8)

	// Interrupt after 5 units via the hook.
	stop := errors.New("stop")
	acc := grad.NewAccumulator(n.PlanUnits())
	_, err := n.Gradient(pairs, theta, acc, func(u, total int) error {
		if acc.CompletedUnits() == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("expected hook stop, got %v", err)
	}
	if acc.CompletedUnits() != 5 {
		t.Fatalf("completed = %d", acc.CompletedUnits())
	}

	// Serialize/restore the accumulator (checkpoint simulation), resume.
	blob, _ := acc.MarshalBinary()
	restored := &grad.Accumulator{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	g1, err := n.Gradient(pairs, theta, restored, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference.
	full := grad.NewAccumulator(n.PlanUnits())
	g2, err := n.Gradient(pairs, theta, full, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := range g1 {
		if g1[p] != g2[p] {
			t.Errorf("resumed gradient differs at %d: %v vs %v", p, g1[p], g2[p])
		}
	}
}

func TestTrainLearnsSingleQubitUnitary(t *testing.T) {
	// A 1-1 DQNN must learn a random 1-qubit unitary from 4 pairs to high
	// fidelity (the thesis's headline demonstration, scaled down).
	n, _ := New([]int{1, 1})
	r := rng.New(11)
	theta := n.InitParams(r)
	pairs := makePairs(t, 1, 4, 12)

	opt := optimizer.NewAdam(n.NumParams(), 0.1)
	initial, _ := n.Loss(pairs, theta, -1, 0)
	for step := 0; step < 60; step++ {
		acc := grad.NewAccumulator(n.PlanUnits())
		g, err := n.Gradient(pairs, theta, acc, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(theta, g)
	}
	final, _ := n.Loss(pairs, theta, -1, 0)
	if final > 0.05 {
		t.Errorf("1-1 DQNN did not learn: loss %v -> %v", initial, final)
	}
}

func TestTrainGeneralizesToUnseenStates(t *testing.T) {
	// Train on 4 pairs from a hidden unitary; fidelity on 6 fresh pairs
	// from the same unitary must rise well above random (~0.5 for 1 qubit).
	n, _ := New([]int{1, 1})
	r := rng.New(13)
	u := quantum.RandomUnitary(1, r)
	gen := func(count int) []Pair {
		out := make([]Pair, count)
		for i := range out {
			in := quantum.RandomState(1, r)
			tgt := in.Clone()
			tgt.ApplyUnitary(u)
			out[i] = Pair{In: in, Target: tgt}
		}
		return out
	}
	trainPairs := gen(4)
	valPairs := gen(6)

	theta := n.InitParams(r)
	opt := optimizer.NewAdam(n.NumParams(), 0.1)
	for step := 0; step < 60; step++ {
		acc := grad.NewAccumulator(n.PlanUnits())
		g, err := n.Gradient(trainPairs, theta, acc, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(theta, g)
	}
	valLoss, err := n.Loss(valPairs, theta, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if valLoss > 0.15 {
		t.Errorf("validation loss %v; DQNN failed to generalize", valLoss)
	}
}

func TestShiftParameterChangesOnlyThatRotation(t *testing.T) {
	n, _ := New([]int{1, 1})
	r := rng.New(17)
	theta := n.InitParams(r)
	in := quantum.RandomState(1, r)

	// Shifting parameter p by δ must equal evaluating with theta[p]+δ.
	const p, delta = 4, 0.37
	a, err := n.FeedForwardPure(in, theta, p, delta)
	if err != nil {
		t.Fatal(err)
	}
	theta2 := append([]float64{}, theta...)
	theta2[p] += delta
	b, err := n.FeedForwardPure(in, theta2, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.HilbertSchmidtDistance(b); d > 1e-12 {
		t.Errorf("occurrence shift != parameter shift: distance %v", d)
	}
}

func TestFingerprintDistinguishesArchitectures(t *testing.T) {
	a, _ := New([]int{1, 1})
	b, _ := New([]int{1, 2, 1})
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("architectures share fingerprint")
	}
}

func TestGradientAccumulatorSizeValidation(t *testing.T) {
	n, _ := New([]int{1, 1})
	theta := make([]float64, n.NumParams())
	pairs := makePairs(t, 1, 1, 20)
	if _, err := n.Gradient(pairs, theta, grad.NewAccumulator(3), nil); err == nil {
		t.Errorf("wrong accumulator size accepted")
	}
}

// BenchmarkDQNNFeedForward measures one dissipative feed-forward through a
// 1-2-1 network (density-matrix path).
func BenchmarkDQNNFeedForward(b *testing.B) {
	net, err := New([]int{1, 2, 1})
	if err != nil {
		b.Fatal(err)
	}
	theta := net.InitParams(rng.New(3))
	in := quantum.RandomState(1, rng.New(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.FeedForwardPure(in, theta, -1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
