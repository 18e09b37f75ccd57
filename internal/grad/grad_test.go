package grad

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/observable"
	"repro/internal/quantum"
	"repro/internal/rng"
)

// exactEvaluator evaluates ⟨H⟩ exactly on the simulator.
func exactEvaluator(c *circuit.Circuit, h observable.Hamiltonian) Evaluator {
	return EvaluatorFunc(func(theta []float64, shift circuit.Shift) (float64, error) {
		s := quantum.New(c.Qubits)
		c.Run(s, theta, shift)
		return h.Expectation(s), nil
	})
}

func testSetup(t *testing.T) (*circuit.Circuit, observable.Hamiltonian, []float64) {
	t.Helper()
	c := circuit.HardwareEfficient(3, 1)
	h := observable.TFIM(3, 1.0, 0.7)
	theta := c.InitParams(rng.New(101))
	return c, h, theta
}

func TestPlanSize(t *testing.T) {
	c := circuit.HardwareEfficient(3, 2)
	plan := Plan(c)
	if len(plan) != 2*c.NumParams {
		t.Errorf("plan has %d units, want %d (no sharing in HWE)", len(plan), 2*c.NumParams)
	}
	for i := 0; i < len(plan); i += 2 {
		if plan[i].OpIndex != plan[i+1].OpIndex || plan[i].Sign != 1 || plan[i+1].Sign != -1 {
			t.Errorf("plan pair %d malformed: %+v %+v", i, plan[i], plan[i+1])
		}
	}
}

func TestPlanSharedParams(t *testing.T) {
	h := observable.MaxCut(4, observable.RingEdges(4))
	c, err := circuit.QAOA(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan(c)
	// 4 RZZ + 4 RX occurrences → 16 units, even though only 2 parameters.
	if len(plan) != 16 {
		t.Errorf("QAOA plan has %d units, want 16", len(plan))
	}
}

func TestParameterShiftMatchesFiniteDiff(t *testing.T) {
	c, h, theta := testSetup(t)
	eval := exactEvaluator(c, h)

	acc := NewAccumulator(len(Plan(c)))
	if err := ParameterShift(c, theta, eval, acc, nil); err != nil {
		t.Fatal(err)
	}
	ps, err := acc.Gradient(c)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := FiniteDiff(c, theta, eval, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ps {
		if math.Abs(ps[p]-fd[p]) > 1e-5 {
			t.Errorf("param %d: shift %v vs finite-diff %v", p, ps[p], fd[p])
		}
	}
}

func TestParameterShiftSharedParamsMatchesFiniteDiff(t *testing.T) {
	hc := observable.MaxCut(4, observable.RingEdges(4))
	c, err := circuit.QAOA(hc, 2)
	if err != nil {
		t.Fatal(err)
	}
	theta := []float64{0.4, 0.9, 1.3, 0.2}
	eval := exactEvaluator(c, hc)
	acc := NewAccumulator(len(Plan(c)))
	if err := ParameterShift(c, theta, eval, acc, nil); err != nil {
		t.Fatal(err)
	}
	ps, err := acc.Gradient(c)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := FiniteDiff(c, theta, eval, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ps {
		if math.Abs(ps[p]-fd[p]) > 1e-4 {
			t.Errorf("shared param %d: shift %v vs finite-diff %v", p, ps[p], fd[p])
		}
	}
}

func TestParameterShiftResumesAfterFailure(t *testing.T) {
	c, h, theta := testSetup(t)
	exact := exactEvaluator(c, h)

	// Evaluator that fails after 5 successful calls.
	calls := 0
	failing := EvaluatorFunc(func(th []float64, sh circuit.Shift) (float64, error) {
		if calls >= 5 {
			return 0, errors.New("preempted")
		}
		calls++
		return exact.Evaluate(th, sh)
	})

	acc := NewAccumulator(len(Plan(c)))
	err := ParameterShift(c, theta, failing, acc, nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	if acc.CompletedUnits() != 5 {
		t.Fatalf("completed units = %d, want 5", acc.CompletedUnits())
	}

	// Serialize, restore, finish with the working evaluator.
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Accumulator{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(acc) {
		t.Fatal("restored accumulator differs")
	}
	countAfter := 0
	counting := EvaluatorFunc(func(th []float64, sh circuit.Shift) (float64, error) {
		countAfter++
		return exact.Evaluate(th, sh)
	})
	if err := ParameterShift(c, theta, counting, restored, nil); err != nil {
		t.Fatal(err)
	}
	if want := restored.Len() - 5; countAfter != want {
		t.Errorf("resume re-ran %d units, want %d (no duplicated work)", countAfter, want)
	}

	// The resumed gradient must equal the uninterrupted gradient exactly.
	full := NewAccumulator(len(Plan(c)))
	if err := ParameterShift(c, theta, exact, full, nil); err != nil {
		t.Fatal(err)
	}
	ga, _ := restored.Gradient(c)
	gb, _ := full.Gradient(c)
	for p := range ga {
		if ga[p] != gb[p] {
			t.Errorf("param %d: resumed %v vs uninterrupted %v", p, ga[p], gb[p])
		}
	}
}

func TestAccumulatorRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rng.New(seed)
		a := NewAccumulator(n)
		// Randomly complete a subset.
		for i := 0; i < n; i++ {
			if r.Float64() < 0.5 {
				a.Record(i, r.NormFloat64())
			}
		}
		blob, err := a.MarshalBinary()
		if err != nil {
			return false
		}
		b := &Accumulator{}
		if err := b.UnmarshalBinary(blob); err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorGradientIncompleteErrors(t *testing.T) {
	c, _, _ := testSetup(t)
	acc := NewAccumulator(len(Plan(c)))
	if _, err := acc.Gradient(c); err == nil {
		t.Errorf("incomplete gradient accepted")
	}
}

func TestAccumulatorNextAndReset(t *testing.T) {
	a := NewAccumulator(3)
	if a.Next() != 0 {
		t.Errorf("Next on empty = %d", a.Next())
	}
	a.Record(0, 1)
	a.Record(1, 2)
	if a.Next() != 2 {
		t.Errorf("Next = %d, want 2", a.Next())
	}
	a.Record(2, 3)
	if a.Next() != -1 || !a.Complete() {
		t.Errorf("complete accumulator: Next=%d Complete=%v", a.Next(), a.Complete())
	}
	a.Reset()
	if a.CompletedUnits() != 0 {
		t.Errorf("reset left %d units", a.CompletedUnits())
	}
}

func TestAccumulatorRecordValidation(t *testing.T) {
	a := NewAccumulator(2)
	for i, fn := range []func(){
		func() { a.Record(-1, 0) },
		func() { a.Record(2, 0) },
		func() { a.Record(0, math.NaN()) },
		func() { a.Record(0, math.Inf(1)) },
		func() { NewAccumulator(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAccumulatorUnmarshalRejectsCorrupt(t *testing.T) {
	a := NewAccumulator(4)
	a.Record(0, 1.5)
	blob, _ := a.MarshalBinary()
	b := &Accumulator{}
	if err := b.UnmarshalBinary(blob[:4]); err == nil {
		t.Errorf("short blob accepted")
	}
	if err := b.UnmarshalBinary(blob[:len(blob)-1]); err == nil {
		t.Errorf("truncated values accepted")
	}
	if err := b.UnmarshalBinary(append(blob, 9)); err == nil {
		t.Errorf("oversized blob accepted")
	}
}

func TestUnitHookCalledAndCanAbort(t *testing.T) {
	c, h, theta := testSetup(t)
	eval := exactEvaluator(c, h)
	acc := NewAccumulator(len(Plan(c)))
	hookCalls := 0
	abort := errors.New("checkpoint-now")
	err := ParameterShift(c, theta, eval, acc, func(i, total int) error {
		hookCalls++
		if hookCalls == 3 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) {
		t.Fatalf("hook abort not propagated: %v", err)
	}
	if acc.CompletedUnits() != 3 {
		t.Errorf("completed = %d, want 3 (unit completes before hook abort)", acc.CompletedUnits())
	}
}

func TestSPSAIsDescentDirectionOnAverage(t *testing.T) {
	c, h, theta := testSetup(t)
	eval := exactEvaluator(c, h)
	// Exact gradient for reference.
	acc := NewAccumulator(len(Plan(c)))
	if err := ParameterShift(c, theta, eval, acc, nil); err != nil {
		t.Fatal(err)
	}
	exact, _ := acc.Gradient(c)

	r := rng.New(55)
	var dot float64
	const trials = 50
	for i := 0; i < trials; i++ {
		g, err := SPSA(c, theta, eval, 0.01, r)
		if err != nil {
			t.Fatal(err)
		}
		for p := range g {
			dot += g[p] * exact[p]
		}
	}
	if dot <= 0 {
		t.Errorf("SPSA estimates anti-correlated with exact gradient: %v", dot)
	}
}

func TestFiniteDiffBadEps(t *testing.T) {
	c, h, theta := testSetup(t)
	if _, err := FiniteDiff(c, theta, exactEvaluator(c, h), 0); err == nil {
		t.Errorf("eps=0 accepted")
	}
	if _, err := SPSA(c, theta, exactEvaluator(c, h), -1, rng.New(1)); err == nil {
		t.Errorf("SPSA eps<0 accepted")
	}
}

func TestParameterShiftWrongSizes(t *testing.T) {
	c, h, theta := testSetup(t)
	eval := exactEvaluator(c, h)
	if err := ParameterShift(c, theta, eval, NewAccumulator(3), nil); err == nil {
		t.Errorf("wrong accumulator size accepted")
	}
	if err := ParameterShift(c, theta[:2], eval, NewAccumulator(len(Plan(c))), nil); err == nil {
		t.Errorf("wrong theta size accepted")
	}
}

func TestGradientDescentReducesEnergy(t *testing.T) {
	// End-to-end sanity: 30 steps of vanilla gradient descent on TFIM
	// lowers the energy materially.
	c, h, theta := testSetup(t)
	eval := exactEvaluator(c, h)
	initial, _ := eval.Evaluate(theta, circuit.NoShift)
	for step := 0; step < 30; step++ {
		acc := NewAccumulator(len(Plan(c)))
		if err := ParameterShift(c, theta, eval, acc, nil); err != nil {
			t.Fatal(err)
		}
		g, _ := acc.Gradient(c)
		for p := range theta {
			theta[p] -= 0.1 * g[p]
		}
	}
	final, _ := eval.Evaluate(theta, circuit.NoShift)
	if final >= initial-0.1 {
		t.Errorf("energy %v -> %v: no meaningful descent", initial, final)
	}
}

func TestAccumulatorClone(t *testing.T) {
	a := NewAccumulator(3)
	a.Record(1, 4.2)
	b := a.Clone()
	a.Record(2, 1.0)
	if b.CompletedUnits() != 1 {
		t.Errorf("clone tracked mutation")
	}
	if !b.done[1] || b.values[1] != 4.2 {
		t.Errorf("clone lost data")
	}
}

// BenchmarkParameterShiftStep measures one full exact-gradient optimizer
// step of the n=4 L=2 VQE workload (the unit of Figure 3's denominators).
func BenchmarkParameterShiftStep(b *testing.B) {
	c := circuit.HardwareEfficient(4, 2)
	h := observable.TFIM(4, 1.0, 0.7)
	theta := c.InitParams(rng.New(2))
	eval := EvaluatorFunc(func(th []float64, sh circuit.Shift) (float64, error) {
		s := quantum.New(4)
		c.Run(s, th, sh)
		return h.Expectation(s), nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewAccumulator(len(Plan(c)))
		if err := ParameterShift(c, theta, eval, acc, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := acc.Gradient(c); err != nil {
			b.Fatal(err)
		}
	}
}
